// Round-trip and stream-output tests for the enum string conversions:
// robust::ErrorCode, robust::SolveMethod, lp::SolveStatus and the
// estimator, attack and service option enums.

#include <gtest/gtest.h>

#include <sstream>

#include "attack/sparse_aware.hpp"
#include "core/defender_ablation.hpp"
#include "lp/simplex.hpp"
#include "robust/degraded.hpp"
#include "robust/expected.hpp"
#include "service/options.hpp"
#include "tomography/estimator_interface.hpp"

namespace scapegoat {
namespace {

TEST(EnumIo, ErrorCodeRoundTrips) {
  for (robust::ErrorCode code :
       {robust::ErrorCode::kInvalidInput, robust::ErrorCode::kEmptyInput,
        robust::ErrorCode::kDimensionMismatch,
        robust::ErrorCode::kRankDeficient, robust::ErrorCode::kIllConditioned,
        robust::ErrorCode::kIterationLimit, robust::ErrorCode::kMissingData,
        robust::ErrorCode::kParseError, robust::ErrorCode::kIoError}) {
    const std::string s = robust::to_string(code);
    EXPECT_NE(s, "unknown");
    const auto back = robust::error_code_from_string(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(robust::error_code_from_string("bogus").has_value());
  EXPECT_FALSE(robust::error_code_from_string("").has_value());
}

TEST(EnumIo, ErrorCodeStreams) {
  std::ostringstream os;
  os << robust::ErrorCode::kRankDeficient;
  EXPECT_EQ(os.str(), "rank_deficient");
}

TEST(EnumIo, SolveMethodRoundTrips) {
  for (robust::SolveMethod m : {robust::SolveMethod::kFullRank,
                                robust::SolveMethod::kRegularizedFallback}) {
    const auto back = robust::solve_method_from_string(robust::to_string(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(robust::solve_method_from_string("qr").has_value());
  std::ostringstream os;
  os << robust::SolveMethod::kRegularizedFallback;
  EXPECT_EQ(os.str(), "regularized_fallback");
}

TEST(EnumIo, LpSolveStatusStreams) {
  std::ostringstream os;
  os << lp::SolveStatus::kOptimal << ' ' << lp::SolveStatus::kIterationLimit;
  EXPECT_EQ(os.str(), "optimal iteration_limit");
}

TEST(EnumIo, ServiceStateRoundTrips) {
  for (service::ServiceState s :
       {service::ServiceState::kHealthy, service::ServiceState::kDegraded,
        service::ServiceState::kShedding, service::ServiceState::kDraining,
        service::ServiceState::kStopped}) {
    const auto back = service::service_state_from_string(service::to_string(s));
    ASSERT_TRUE(back.has_value()) << service::to_string(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_EQ(service::to_string(service::ServiceState::kShedding), "shedding");
  EXPECT_FALSE(service::service_state_from_string("overloaded").has_value());
  EXPECT_FALSE(service::service_state_from_string("").has_value());
}

TEST(EnumIo, ServiceAdmissionAndShedModeStrings) {
  EXPECT_EQ(service::to_string(service::Admission::kAdmitted), "admitted");
  EXPECT_EQ(service::to_string(service::Admission::kRejected), "rejected");
  EXPECT_EQ(service::to_string(service::Admission::kShed), "shed");
  EXPECT_EQ(service::to_string(service::Admission::kClosed), "closed");
  EXPECT_EQ(service::to_string(service::ShedPolicy::Mode::kOff), "off");
  EXPECT_EQ(service::to_string(service::ShedPolicy::Mode::kAuto), "auto");
  EXPECT_EQ(service::to_string(service::ShedPolicy::Mode::kPinned), "pinned");
}

TEST(EnumIo, EstimatorKindRoundTrips) {
  for (EstimatorKind k :
       {EstimatorKind::kLeastSquares, EstimatorKind::kSparseRecovery,
        EstimatorKind::kMulticastMle}) {
    const auto back = estimator_kind_from_string(to_string(k));
    ASSERT_TRUE(back.has_value()) << to_string(k);
    EXPECT_EQ(*back, k);
  }
  EXPECT_EQ(to_string(EstimatorKind::kLeastSquares), "least_squares");
  EXPECT_EQ(to_string(EstimatorKind::kSparseRecovery), "sparse_recovery");
  EXPECT_EQ(to_string(EstimatorKind::kMulticastMle), "multicast_mle");
  EXPECT_FALSE(estimator_kind_from_string("l1").has_value());
  EXPECT_FALSE(estimator_kind_from_string("mle").has_value());
  EXPECT_FALSE(estimator_kind_from_string("").has_value());
  std::ostringstream os;
  os << EstimatorKind::kSparseRecovery;
  EXPECT_EQ(os.str(), "sparse_recovery");
}

TEST(EnumIo, ProbeModeRoundTrips) {
  for (simnet::ProbeMode m :
       {simnet::ProbeMode::kUnicast, simnet::ProbeMode::kMulticast}) {
    const auto back = simnet::probe_mode_from_string(simnet::to_string(m));
    ASSERT_TRUE(back.has_value()) << simnet::to_string(m);
    EXPECT_EQ(*back, m);
  }
  EXPECT_EQ(simnet::to_string(simnet::ProbeMode::kUnicast), "unicast");
  EXPECT_EQ(simnet::to_string(simnet::ProbeMode::kMulticast), "multicast");
  EXPECT_FALSE(simnet::probe_mode_from_string("broadcast").has_value());
  EXPECT_FALSE(simnet::probe_mode_from_string("").has_value());
  std::ostringstream os;
  os << simnet::ProbeMode::kMulticast;
  EXPECT_EQ(os.str(), "multicast");
}

TEST(EnumIo, LossAttackFamilyRoundTrips) {
  for (LossAttackFamily f :
       {LossAttackFamily::kSubtreeFraming, LossAttackFamily::kSplitFraming}) {
    const auto back = loss_attack_family_from_string(to_string(f));
    ASSERT_TRUE(back.has_value()) << to_string(f);
    EXPECT_EQ(*back, f);
  }
  EXPECT_EQ(to_string(LossAttackFamily::kSubtreeFraming), "subtree_framing");
  EXPECT_EQ(to_string(LossAttackFamily::kSplitFraming), "split_framing");
  EXPECT_FALSE(loss_attack_family_from_string("framing").has_value());
  EXPECT_FALSE(loss_attack_family_from_string("").has_value());
  std::ostringstream os;
  os << LossAttackFamily::kSubtreeFraming;
  EXPECT_EQ(os.str(), "subtree_framing");
}

TEST(EnumIo, LeakageScopeRoundTrips) {
  for (LeakageScope s :
       {LeakageScope::kAttackerPaths, LeakageScope::kAllPaths}) {
    const auto back = leakage_scope_from_string(to_string(s));
    ASSERT_TRUE(back.has_value()) << to_string(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_EQ(to_string(LeakageScope::kAllPaths), "all_paths");
  EXPECT_FALSE(leakage_scope_from_string("everywhere").has_value());
  std::ostringstream os;
  os << LeakageScope::kAttackerPaths;
  EXPECT_EQ(os.str(), "attacker_paths");
}

TEST(EnumIo, AttackFamilyRoundTrips) {
  for (AttackFamily f :
       {AttackFamily::kUnrestricted, AttackFamily::kConsistent,
        AttackFamily::kSparseAware}) {
    const auto back = attack_family_from_string(to_string(f));
    ASSERT_TRUE(back.has_value()) << to_string(f);
    EXPECT_EQ(*back, f);
  }
  EXPECT_EQ(to_string(AttackFamily::kSparseAware), "sparse-aware");
  EXPECT_FALSE(attack_family_from_string("stealthy").has_value());
  EXPECT_FALSE(attack_family_from_string("").has_value());
  std::ostringstream os;
  os << AttackFamily::kConsistent;
  EXPECT_EQ(os.str(), "consistent");
}

TEST(EnumIo, ExpectedErrorMessage) {
  const robust::Expected<int> good(7);
  EXPECT_TRUE(good.error_message().empty());
  const robust::Expected<int> bad(
      robust::Error{robust::ErrorCode::kMissingData, "no probes arrived"});
  EXPECT_EQ(bad.error_message(), "missing_data: no probes arrived");
}

TEST(EnumIo, ExpectedMonadicOps) {
  const robust::Expected<int> good(21);
  const auto doubled = good.map([](int v) { return v * 2; });
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(*doubled, 42);

  const auto chained = good.and_then([](int v) -> robust::Expected<int> {
    if (v > 100) return robust::Error{robust::ErrorCode::kInvalidInput, "big"};
    return v + 1;
  });
  ASSERT_TRUE(chained.ok());
  EXPECT_EQ(*chained, 22);

  const robust::Expected<int> bad(
      robust::Error{robust::ErrorCode::kRankDeficient, "r < n"});
  const auto still_bad = bad.map([](int v) { return v * 2; });
  ASSERT_FALSE(still_bad.ok());
  EXPECT_EQ(still_bad.code(), robust::ErrorCode::kRankDeficient);
  const auto also_bad =
      bad.and_then([](int v) -> robust::Expected<double> { return v * 1.0; });
  ASSERT_FALSE(also_bad.ok());
  EXPECT_EQ(also_bad.error().message, "r < n");
  EXPECT_EQ(bad.value_or(-1), -1);
}

}  // namespace
}  // namespace scapegoat
