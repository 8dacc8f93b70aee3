// Golden-report test of the sweep service: the report of the CI smoke
// config (examples/sweep_smoke.json) must match the committed
// tests/golden/sweep_smoke.report.json. Structure, key order, strings,
// integers and booleans must match exactly; doubles to 1e-12 relative, so
// the test holds on every linalg backend and SIMD setting.

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "qfc/io/json.hpp"
#include "qfc/sweep/sweep.hpp"

namespace {

using namespace qfc;
using io::Json;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Empty when `got` matches `want`; otherwise the path of the first
/// difference and both values.
std::string first_difference(const Json& want, const Json& got, const std::string& path) {
  const auto differ = [&] { return path + ": want " + want.dump() + ", got " + got.dump(); };
  if (want.type() != got.type()) return differ();
  switch (want.type()) {
    case Json::Type::Double: {
      const double w = want.number_value();
      return std::abs(got.number_value() - w) <= 1e-12 * std::abs(w) ? "" : differ();
    }
    case Json::Type::Array: {
      const auto& a = want.array_items();
      const auto& b = got.array_items();
      if (a.size() != b.size()) return path + ": array length differs";
      for (std::size_t i = 0; i < a.size(); ++i) {
        std::string d = first_difference(a[i], b[i], path + "[" + std::to_string(i) + "]");
        if (!d.empty()) return d;
      }
      return "";
    }
    case Json::Type::Object: {
      const auto& a = want.object_members();
      const auto& b = got.object_members();
      if (a.size() != b.size()) return path + ": member count differs";
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first)
          return path + ": key " + std::to_string(i) + " is '" + b[i].first + "', want '" +
                 a[i].first + "'";
        std::string d = first_difference(a[i].second, b[i].second, path + "." + a[i].first);
        if (!d.empty()) return d;
      }
      return "";
    }
    default:
      return want == got ? "" : differ();
  }
}

TEST(SweepGolden, SmokeReportMatchesTheRecordedReport) {
  const auto plan = sweep::expand_sweep_config(
      Json::parse(read_file(QFC_SOURCE_DIR "/examples/sweep_smoke.json")));
  const auto report = sweep::run_sweep(plan, plan.workers);
  const Json golden =
      Json::parse(read_file(QFC_SOURCE_DIR "/tests/golden/sweep_smoke.report.json"));
  EXPECT_EQ(first_difference(golden, Json::parse(report.json.dump(2)), "$"), "");
}

}  // namespace
