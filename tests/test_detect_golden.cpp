// Golden-value test of the detection pipeline (tests/detect_golden.hpp):
// EventEngine::run and the car_matrix / coincidence_count_matrix /
// correlate_all analyzers must reproduce the recorded click tables and
// counts in every emission mode, at every generation and analysis thread
// count.

#include <string>

#include <gtest/gtest.h>

#include "detect_golden.hpp"
#include "qfc/detect/event_engine.hpp"

namespace {

using namespace qfc;

class DetectGolden : public ::testing::TestWithParam<detect::EmissionMode> {};

TEST_P(DetectGolden, EngineAndAnalyzersReproduceRecordedValues) {
  const detect::EmissionMode mode = GetParam();
  for (int gen_threads : {1, 3}) {
    SCOPED_TRACE("generation threads = " + std::to_string(gen_threads));
    const detect::EngineResult events =
        detect::EventEngine(golden::engine_config(gen_threads)).run(golden::specs(mode));
    golden::expect_events(events, mode);
    for (int analysis_threads : {1, 4}) {
      SCOPED_TRACE("analysis threads = " + std::to_string(analysis_threads));
      golden::expect_car(
          detect::car_matrix(events.signal, events.idler, golden::kCarWindow,
                             golden::kCarSpacing, golden::kCarSideWindows, analysis_threads),
          mode);
      golden::expect_count_matrix(
          detect::coincidence_count_matrix(events.signal, events.idler, golden::kCountWindow,
                                           golden::kCountOffset, analysis_threads),
          mode);
      golden::expect_histograms(
          detect::correlate_all(events.signal, events.idler, golden::kCorrBin,
                                golden::kCorrRange, analysis_threads),
          mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEmissionModes, DetectGolden,
                         ::testing::Values(detect::EmissionMode::Cw,
                                           detect::EmissionMode::Pulsed,
                                           detect::EmissionMode::PiecewiseRates));

}  // namespace
