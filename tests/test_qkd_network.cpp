// Tests for the many-user QKD network façade: zero-leakage cross-talk
// parity with the single link, spec-level cross-talk injection, bitwise
// determinism of a 256-user run across analysis thread counts, degenerate
// networks, and config validation.

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/core/qkd_network.hpp"

namespace {

using namespace qfc;

class QkdNetworkFixture : public ::testing::Test {
 protected:
  QkdNetworkFixture()
      : comb_(core::QuantumFrequencyComb::for_configuration(
            core::PumpConfiguration::DoublePulse)),
        exp_(comb_.timebin_default()) {}

  core::QuantumFrequencyComb comb_;
  core::TimebinExperiment exp_;
};

void expect_reports_bitwise_equal(const core::QkdNetworkReport& a,
                                  const core::QkdNetworkReport& b) {
  ASSERT_EQ(a.users.size(), b.users.size());
  for (std::size_t u = 0; u < a.users.size(); ++u) {
    SCOPED_TRACE("user " + std::to_string(u));
    EXPECT_EQ(a.users[u].channel_pair, b.users[u].channel_pair);
    EXPECT_EQ(a.users[u].car.coincidences, b.users[u].car.coincidences);
    EXPECT_EQ(a.users[u].car.accidentals, b.users[u].car.accidentals);
    EXPECT_EQ(a.users[u].car.car, b.users[u].car.car);
    EXPECT_EQ(a.users[u].car.car_err, b.users[u].car.car_err);
    EXPECT_EQ(a.users[u].visibility, b.users[u].visibility);
    EXPECT_TRUE((std::isnan(a.users[u].qber) && std::isnan(b.users[u].qber)) ||
                a.users[u].qber == b.users[u].qber);
    EXPECT_EQ(a.users[u].sifted_rate_hz, b.users[u].sifted_rate_hz);
    EXPECT_EQ(a.users[u].secret_key_rate_bps, b.users[u].secret_key_rate_bps);
  }
  EXPECT_EQ(a.total_key_rate_bps, b.total_key_rate_bps);
  EXPECT_TRUE((std::isnan(a.worst_qber) && std::isnan(b.worst_qber)) ||
              a.worst_qber == b.worst_qber);
  EXPECT_EQ(a.users_with_key, b.users_with_key);
  EXPECT_EQ(a.users_no_data, b.users_no_data);
  ASSERT_EQ(a.distance_histogram.size(), b.distance_histogram.size());
  for (std::size_t i = 0; i < a.distance_histogram.size(); ++i) {
    EXPECT_EQ(a.distance_histogram[i].users, b.distance_histogram[i].users);
    EXPECT_EQ(a.distance_histogram[i].total_key_rate_bps,
              b.distance_histogram[i].total_key_rate_bps);
    EXPECT_TRUE((std::isnan(a.distance_histogram[i].mean_qber) &&
                 std::isnan(b.distance_histogram[i].mean_qber)) ||
                a.distance_histogram[i].mean_qber == b.distance_histogram[i].mean_qber);
  }
}

TEST_F(QkdNetworkFixture, ZeroLeakageSpecsMatchSingleLinkBitwise) {
  core::QkdNetworkConfig cfg;
  for (int k = 1; k <= 3; ++k) {
    core::QkdUserSpec user;
    user.channel_pair = k;
    user.link.distance_km = 10.0 * k;
    cfg.users.push_back(user);
  }
  const core::QkdNetwork net(exp_, cfg);
  const auto specs = net.engine_specs();
  ASSERT_EQ(specs.size(), 3u);
  for (int k = 1; k <= 3; ++k) {
    const auto u = static_cast<std::size_t>(k - 1);
    const auto plain = core::link_channel_spec(exp_, k, cfg.users[u].endpoint,
                                               cfg.users[u].link);
    EXPECT_EQ(specs[u].pair_rate_hz, plain.pair_rate_hz) << "k=" << k;
    EXPECT_EQ(specs[u].transmission_signal, plain.transmission_signal);
    EXPECT_EQ(specs[u].transmission_idler, plain.transmission_idler);
    // The cross-talk no-op leaves the background path bit-for-bit alone.
    EXPECT_EQ(specs[u].background_rate_signal_hz, plain.background_rate_signal_hz);
    EXPECT_EQ(specs[u].background_rate_idler_hz, plain.background_rate_idler_hz);
  }
}

TEST_F(QkdNetworkFixture, SingleUserNetworkMatchesLinkStreamCheckBitwise) {
  // User 0 on pair 1 is engine channel 0 in both runs, with an identical
  // spec and seed; a CAR cell depends only on its two columns, so the
  // network's one-user report must reproduce the link's k=1 check exactly.
  const double distance = 12.0, duration = 0.05;
  core::QkdUserSpec user;
  user.channel_pair = 1;
  user.link.distance_km = distance;
  core::QkdNetworkConfig cfg;
  cfg.users = {user};
  const core::QkdNetwork net(exp_, cfg);
  const auto report = net.run(duration);
  ASSERT_EQ(report.users.size(), 1u);

  const core::MultiplexedQkdLink link(exp_);
  const auto checks = link.stream_check(distance, duration);
  ASSERT_GE(checks.size(), 1u);
  EXPECT_EQ(checks[0].k, 1);
  EXPECT_EQ(report.users[0].car.coincidences, checks[0].car.coincidences);
  EXPECT_EQ(report.users[0].car.accidentals, checks[0].car.accidentals);
  EXPECT_EQ(report.users[0].car.car, checks[0].car.car);
  EXPECT_EQ(report.users[0].car.car_err, checks[0].car.car_err);
}

TEST_F(QkdNetworkFixture, CrosstalkRaisesBackgroundOfAdjacentBinsOnly) {
  core::QkdNetworkConfig cfg;
  for (int k : {1, 2, 4}) {  // bins 1-2 adjacent; bin 4 isolated
    core::QkdUserSpec user;
    user.channel_pair = k;
    user.link.distance_km = 5.0;
    user.crosstalk_leakage = 0.05;
    cfg.users.push_back(user);
  }
  const core::QkdNetwork net(exp_, cfg);
  const auto specs = net.engine_specs();

  core::QkdNetworkConfig clean = cfg;
  for (auto& user : clean.users) user.crosstalk_leakage = 0.0;
  const auto plain = core::QkdNetwork(exp_, clean).engine_specs();

  // Users on adjacent bins pick up leaked background; the isolated bin
  // (no |Δbin| == 1 neighbor in the network) is untouched.
  EXPECT_GT(specs[0].background_rate_signal_hz, plain[0].background_rate_signal_hz);
  EXPECT_GT(specs[0].background_rate_idler_hz, plain[0].background_rate_idler_hz);
  EXPECT_GT(specs[1].background_rate_signal_hz, plain[1].background_rate_signal_hz);
  EXPECT_EQ(specs[2].background_rate_signal_hz, plain[2].background_rate_signal_hz);
  EXPECT_EQ(specs[2].background_rate_idler_hz, plain[2].background_rate_idler_hz);

  // Leaked flux rides the receiving user's span: rate x leakage x t_arm.
  const double t_arm = cfg.users[0].link.arm_transmission();
  const double neighbor = detect::mean_pair_rate_hz(plain[1]);
  EXPECT_DOUBLE_EQ(
      specs[0].background_rate_signal_hz - plain[0].background_rate_signal_hz,
      0.05 * neighbor * t_arm);
}

TEST_F(QkdNetworkFixture, TwoHundredFiftySixUsersDeterministicAcrossThreads) {
  core::QkdNetworkConfig cfg = core::QkdNetworkConfig::uniform(
      /*num_users=*/256, /*max_distance_km=*/100.0);
  cfg.stream_window_s = 0.004;
  for (auto& user : cfg.users) user.crosstalk_leakage = 0.01;

  core::QkdNetworkReport reports[3];
  const int threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    cfg.analysis_threads = threads[i];
    const core::QkdNetwork net(exp_, cfg);
    reports[i] = net.run(/*duration_s=*/0.01);
    ASSERT_EQ(reports[i].users.size(), 256u);
  }
  expect_reports_bitwise_equal(reports[0], reports[1]);
  expect_reports_bitwise_equal(reports[0], reports[2]);

  // Round-robin auto-assignment over the experiment's pairs.
  const core::QkdNetwork net(exp_, cfg);
  const int num_pairs = exp_.config().num_channel_pairs;
  for (std::size_t u = 0; u < 256; ++u)
    EXPECT_EQ(net.assigned_channel_pair(u),
              static_cast<int>(u % static_cast<std::size_t>(num_pairs)) + 1);

  // Sanity on the aggregates: the near users distill key, the histogram
  // covers [0, 100] km, and every user is binned exactly once.
  EXPECT_GT(reports[0].users_with_key, 0u);
  EXPECT_GT(reports[0].total_key_rate_bps, 0.0);
  EXPECT_FALSE(std::isnan(reports[0].worst_qber));
  std::size_t binned = 0;
  for (const auto& bin : reports[0].distance_histogram) binned += bin.users;
  EXPECT_EQ(binned, 256u);
}

TEST_F(QkdNetworkFixture, EmptyAndSingleUserDegenerateNetworks) {
  const core::QkdNetwork empty(exp_, core::QkdNetworkConfig{});
  EXPECT_EQ(empty.num_users(), 0u);
  const auto report = empty.run(0.01);
  EXPECT_TRUE(report.users.empty());
  EXPECT_TRUE(std::isnan(report.worst_qber));
  EXPECT_EQ(report.total_key_rate_bps, 0.0);
  EXPECT_TRUE(report.distance_histogram.empty());
  EXPECT_EQ(report.stream_windows, 0u);

  core::QkdNetworkConfig one = core::QkdNetworkConfig::uniform(1, 50.0);
  const core::QkdNetwork single(exp_, one);
  EXPECT_EQ(single.num_users(), 1u);
  EXPECT_DOUBLE_EQ(one.users[0].link.distance_km, 0.0);  // lone user sits at 0
  const auto r = single.run(0.02);
  ASSERT_EQ(r.users.size(), 1u);
  EXPECT_EQ(r.users[0].channel_pair, 1);
  EXPECT_TRUE(r.users[0].key_positive);
  EXPECT_EQ(r.users_with_key, 1u);
  EXPECT_EQ(r.total_key_rate_bps, r.users[0].secret_key_rate_bps);
}

TEST_F(QkdNetworkFixture, UnreachableUserHasNoQberAndStaysOutOfAggregates) {
  // User 1 sits behind 2000 km of fiber: in a short run it records no
  // coincidence at all, so it has no QBER rather than the QBER 0.5 of
  // zero visibility, and the QBER aggregates cover user 0 only.
  core::QkdNetworkConfig cfg = core::QkdNetworkConfig::uniform(2, 0.0);
  cfg.users[1].link.distance_km = 2000.0;
  cfg.histogram_bin_km = 1000.0;
  const core::QkdNetwork net(exp_, cfg);
  const auto report = net.run(/*duration_s=*/0.01);
  ASSERT_EQ(report.users.size(), 2u);
  const auto& near = report.users[0];
  const auto& far = report.users[1];
  ASSERT_GT(near.car.coincidences, 0.0);
  EXPECT_FALSE(std::isnan(near.qber));
  EXPECT_EQ(far.car.coincidences, 0.0);
  EXPECT_TRUE(std::isnan(far.qber));
  EXPECT_FALSE(far.key_positive);
  EXPECT_EQ(far.secret_key_rate_bps, 0.0);

  EXPECT_EQ(report.users_no_data, 1u);
  EXPECT_EQ(report.worst_qber, near.qber);
  ASSERT_EQ(report.distance_histogram.size(), 3u);
  EXPECT_EQ(report.distance_histogram[0].mean_qber, near.qber);
  EXPECT_EQ(report.distance_histogram[1].users, 0u);
  EXPECT_EQ(report.distance_histogram[1].mean_qber, 0.0);
  EXPECT_EQ(report.distance_histogram[2].users, 1u);
  EXPECT_TRUE(std::isnan(report.distance_histogram[2].mean_qber));

  const io::Json j = io::to_json(report);
  EXPECT_TRUE(std::isnan(j.find("users")->array_items()[1].find("qber")->number_value()));
  EXPECT_TRUE(j.find("users")->array_items()[0].find("qber")->is_number());
  EXPECT_EQ(j.find("users_no_data")->int_value(), 1);
}

TEST_F(QkdNetworkFixture, ValidationNamesTheOffendingUser) {
  core::QkdNetworkConfig cfg = core::QkdNetworkConfig::uniform(3, 30.0);
  cfg.users[1].endpoint.dark_rate_hz = -5.0;
  try {
    const core::QkdNetwork net(exp_, cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("user 1"), std::string::npos)
        << e.what();
  }

  cfg = core::QkdNetworkConfig::uniform(2, 30.0);
  cfg.users[1].channel_pair = exp_.config().num_channel_pairs + 1;
  EXPECT_THROW(core::QkdNetwork(exp_, cfg), std::invalid_argument);

  cfg = core::QkdNetworkConfig::uniform(2, 30.0);
  cfg.users[1].endpoint.coincidence_window_s = 2e-9;  // differs from user 0
  EXPECT_THROW(core::QkdNetwork(exp_, cfg), std::invalid_argument);

  cfg = core::QkdNetworkConfig::uniform(2, 30.0);
  cfg.users[0].crosstalk_leakage = 1.5;
  EXPECT_THROW(core::QkdNetwork(exp_, cfg), std::invalid_argument);

  cfg = core::QkdNetworkConfig::uniform(2, 30.0);
  cfg.stream_window_s = 0.0;
  EXPECT_THROW(core::QkdNetwork(exp_, cfg), std::invalid_argument);

  const core::QkdNetwork ok(exp_, core::QkdNetworkConfig::uniform(2, 30.0));
  EXPECT_THROW(ok.run(0.0), std::invalid_argument);
  EXPECT_THROW(ok.assigned_channel_pair(2), std::out_of_range);
}

TEST_F(QkdNetworkFixture, NanStreamWindowIsRejectedAtConstruction) {
  // A NaN window would otherwise reach the streamer's window count.
  core::QkdNetworkConfig cfg = core::QkdNetworkConfig::uniform(2, 30.0);
  cfg.stream_window_s = std::nan("");
  try {
    const core::QkdNetwork net(exp_, cfg);
    FAIL() << "NaN stream window accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("QkdNetworkConfig.stream_window_s"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
