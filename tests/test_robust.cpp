// Unit coverage for the robustness layer: the Expected error taxonomy, the
// stateless fault injector's determinism, the retry policy arithmetic,
// median-of-retries, and degraded estimation (row dropping, rank
// certification, regularized fallback, structured errors).

#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "robust/degraded.hpp"
#include "robust/expected.hpp"
#include "robust/faults.hpp"
#include "robust/retry.hpp"

namespace scapegoat::robust {
namespace {

// ------------------------------------------------------------- Expected --

TEST(Expected, HoldsValue) {
  Expected<int> e = 42;
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(-1), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e = Error{ErrorCode::kRankDeficient, "rank 3 of 5"};
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.code(), ErrorCode::kRankDeficient);
  EXPECT_EQ(e.value_or(-1), -1);
  EXPECT_NE(e.error().to_string().find("rank 3 of 5"), std::string::npos);
}

TEST(Expected, StatusConveysSuccess) {
  Status s = ok_status();
  EXPECT_TRUE(s.ok());
  Status f = Error{ErrorCode::kIoError, "disk"};
  EXPECT_FALSE(f.ok());
}

TEST(Expected, EveryCodeHasAName) {
  for (ErrorCode c :
       {ErrorCode::kInvalidInput, ErrorCode::kEmptyInput,
        ErrorCode::kDimensionMismatch, ErrorCode::kRankDeficient,
        ErrorCode::kIllConditioned, ErrorCode::kIterationLimit,
        ErrorCode::kMissingData, ErrorCode::kParseError, ErrorCode::kIoError}) {
    EXPECT_FALSE(to_string(c).empty());
    EXPECT_EQ(to_string(c).find('?'), std::string::npos);
  }
}

// -------------------------------------------------------- FaultInjector --

TEST(FaultInjector, DefaultNeverFaults) {
  FaultInjector f;
  EXPECT_FALSE(f.spec().any());
  for (std::size_t p = 0; p < 50; ++p) {
    EXPECT_FALSE(f.probe_lost(p, 0, 0));
    EXPECT_FALSE(f.link_failed(p));
    EXPECT_FALSE(f.monitor_down(p));
    EXPECT_EQ(f.clock_jitter(p, 0, 0), 0.0);
  }
}

TEST(FaultInjector, CertainLossAlwaysHits) {
  FaultSpec spec;
  spec.probe_loss_rate = 1.0;
  FaultInjector f(spec, 7);
  for (std::size_t p = 0; p < 20; ++p)
    for (std::size_t probe = 0; probe < 3; ++probe)
      EXPECT_TRUE(f.probe_lost(p, probe, 0));
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultSpec spec;
  spec.probe_loss_rate = 0.3;
  spec.duplicate_rate = 0.2;
  spec.clock_jitter_ms = 4.0;
  FaultInjector a(spec, 123);
  FaultInjector b(spec, 123);
  for (std::size_t p = 0; p < 40; ++p) {
    EXPECT_EQ(a.probe_lost(p, p % 5, p % 3), b.probe_lost(p, p % 5, p % 3));
    EXPECT_EQ(a.probe_duplicated(p, 0, 0), b.probe_duplicated(p, 0, 0));
    EXPECT_EQ(a.clock_jitter(p, 1, 2), b.clock_jitter(p, 1, 2));
  }
}

TEST(FaultInjector, DifferentSeedsDecorrelate) {
  FaultSpec spec;
  spec.probe_loss_rate = 0.5;
  FaultInjector a(spec, 1);
  FaultInjector b(spec, 2);
  std::size_t differs = 0;
  for (std::size_t p = 0; p < 200; ++p)
    if (a.probe_lost(p, 0, 0) != b.probe_lost(p, 0, 0)) ++differs;
  EXPECT_GT(differs, 50u);  // ~100 expected for independent fair coins
}

TEST(FaultInjector, RetryRoundsDrawFreshFates) {
  FaultSpec spec;
  spec.probe_loss_rate = 0.5;
  FaultInjector f(spec, 99);
  std::size_t differs = 0;
  for (std::size_t p = 0; p < 200; ++p)
    if (f.probe_lost(p, 0, 0) != f.probe_lost(p, 0, 1)) ++differs;
  EXPECT_GT(differs, 50u);
}

TEST(FaultInjector, LossFrequencyTracksRate) {
  FaultSpec spec;
  spec.probe_loss_rate = 0.2;
  FaultInjector f(spec, 5);
  std::size_t lost = 0;
  constexpr std::size_t kDraws = 5000;
  for (std::size_t i = 0; i < kDraws; ++i)
    if (f.probe_lost(i, 0, 0)) ++lost;
  const double freq = static_cast<double>(lost) / kDraws;
  EXPECT_NEAR(freq, 0.2, 0.03);
}

TEST(FaultInjector, ClockJitterBoundedAndSigned) {
  FaultSpec spec;
  spec.clock_jitter_ms = 3.0;
  FaultInjector f(spec, 11);
  bool saw_negative = false, saw_positive = false;
  for (std::size_t p = 0; p < 500; ++p) {
    const double j = f.clock_jitter(p, 0, 0);
    EXPECT_LT(std::abs(j), 3.0);
    saw_negative |= j < 0.0;
    saw_positive |= j > 0.0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(FaultInjector, WholeRunOutagesAreStable) {
  FaultSpec spec;
  spec.link_failure_rate = 0.5;
  spec.monitor_outage_rate = 0.5;
  FaultInjector f(spec, 3);
  for (std::size_t e = 0; e < 30; ++e) {
    EXPECT_EQ(f.link_failed(e), f.link_failed(e));
    EXPECT_EQ(f.monitor_down(e), f.monitor_down(e));
  }
}

// ---------------------------------------------------------- RetryPolicy --

TEST(RetryPolicy, AttemptBudget) {
  RetryPolicy p;
  p.max_retries = 3;
  EXPECT_EQ(p.attempts(), 4u);
}

TEST(RetryPolicy, DeadlineGrowsExponentially) {
  RetryPolicy p;
  p.probe_deadline_ms = 100.0;
  p.backoff_factor = 2.0;
  EXPECT_DOUBLE_EQ(p.deadline_for(0), 100.0);
  EXPECT_DOUBLE_EQ(p.deadline_for(1), 200.0);
  EXPECT_DOUBLE_EQ(p.deadline_for(2), 400.0);
}

TEST(RetryPolicy, ZeroDeadlineStaysDisabled) {
  RetryPolicy p;
  p.probe_deadline_ms = 0.0;
  EXPECT_EQ(p.deadline_for(0), 0.0);
  EXPECT_EQ(p.deadline_for(5), 0.0);
}

TEST(RetryPolicy, BackoffBeforeFirstAttemptIsZero) {
  RetryPolicy p;
  p.backoff_base_ms = 10.0;
  p.backoff_factor = 2.0;
  EXPECT_EQ(p.backoff_before(0), 0.0);
  EXPECT_DOUBLE_EQ(p.backoff_before(1), 10.0);
  EXPECT_DOUBLE_EQ(p.backoff_before(2), 20.0);
}

TEST(RetryPolicy, RetryAfterHintFloorsTheBackoff) {
  RetryPolicy p;
  p.backoff_base_ms = 10.0;
  p.backoff_factor = 2.0;
  // Hint above the curve: the server's ask wins.
  EXPECT_DOUBLE_EQ(p.backoff_before(1, -1.0, 50.0), 50.0);
  // Hint below the curve: our own backoff still applies.
  EXPECT_DOUBLE_EQ(p.backoff_before(3, -1.0, 5.0), 40.0);
  // No hint (<= 0) degrades to the plain form.
  EXPECT_DOUBLE_EQ(p.backoff_before(2, -1.0, 0.0), p.backoff_before(2, -1.0));
  EXPECT_DOUBLE_EQ(p.backoff_before(2, -1.0, -3.0), p.backoff_before(2, -1.0));
}

TEST(RetryPolicy, RetryAfterHintSaturatesAndClamps) {
  RetryPolicy p;
  p.backoff_base_ms = 10.0;
  p.max_backoff_ms = 1000.0;
  // An hour-long server hint saturates at the policy ceiling...
  EXPECT_DOUBLE_EQ(p.backoff_before(1, -1.0, 3.6e6), 1000.0);
  // ...and the remaining deadline clamps whatever survives.
  EXPECT_DOUBLE_EQ(p.backoff_before(1, 25.0, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(p.backoff_before(1, 0.0, 50.0), 0.0);
}

TEST(RetryPolicy, RetryFitsHonoursDeadlineAndCeiling) {
  RetryPolicy p;
  p.max_backoff_ms = 1000.0;
  EXPECT_TRUE(p.retry_fits(-1.0, 1e9));   // no deadline: always fits
  EXPECT_TRUE(p.retry_fits(100.0, 50.0));
  EXPECT_FALSE(p.retry_fits(100.0, 200.0));
  // A saturating hint fits iff the ceiling itself fits.
  EXPECT_TRUE(p.retry_fits(1000.0, 1e9));
  EXPECT_FALSE(p.retry_fits(999.0, 1e9));
  EXPECT_TRUE(p.retry_fits(0.0, 0.0));    // nothing to wait for
}

TEST(Median, OddEvenEmptyAndOutlier) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
  // One retry measured through a transient 1000 ms fault cannot drag it.
  EXPECT_DOUBLE_EQ(median({10.0, 11.0, 1000.0}), 11.0);
}

// --------------------------------------------------- DegradedMeasurement --

TEST(DegradedMeasurement, AllMeasuredIsComplete) {
  auto m = DegradedMeasurement::all_measured(Vector{1.0, 2.0, 3.0});
  EXPECT_TRUE(m.complete());
  EXPECT_EQ(m.num_measured(), 3u);
  EXPECT_DOUBLE_EQ(m.measured_fraction(), 1.0);
}

TEST(DegradedMeasurement, PartialMask) {
  DegradedMeasurement m;
  m.y = Vector{1.0, 0.0, 3.0, 4.0};
  m.measured = {true, false, true, true};
  EXPECT_FALSE(m.complete());
  EXPECT_EQ(m.num_measured(), 3u);
  EXPECT_DOUBLE_EQ(m.measured_fraction(), 0.75);
}

// ----------------------------------------------------- degraded_estimate --

// A 4×2 system: x = (3, 5), rows redundant enough to lose one.
Matrix test_r() {
  return Matrix{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {1.0, 2.0}};
}

// The degraded solvers take R in CSR form, as Estimator::sparse_r() holds it.
SparseMatrix test_sparse_r() { return SparseMatrix::from_dense(test_r()); }

Vector test_y() { return Vector{3.0, 5.0, 8.0, 13.0}; }

TEST(DegradedEstimate, CompleteMeasurementsRecoverExactly) {
  auto res = degraded_estimate(test_sparse_r(),
                               DegradedMeasurement::all_measured(test_y()));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->method, SolveMethod::kFullRank);
  EXPECT_EQ(res->paths_used, 4u);
  EXPECT_EQ(res->rank, 2u);
  EXPECT_GT(res->condition, 0.0);
  EXPECT_NEAR(res->x[0], 3.0, 1e-9);
  EXPECT_NEAR(res->x[1], 5.0, 1e-9);
}

TEST(DegradedEstimate, SurvivesDroppedRedundantRows) {
  DegradedMeasurement m;
  m.y = test_y();
  m.measured = {true, false, true, false};  // rows 0 and 2 still identify x
  auto res = degraded_estimate(test_sparse_r(), m);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->method, SolveMethod::kFullRank);
  EXPECT_EQ(res->paths_used, 2u);
  EXPECT_NEAR(res->x[0], 3.0, 1e-9);
  EXPECT_NEAR(res->x[1], 5.0, 1e-9);
}

TEST(DegradedEstimate, RankDeficiencyFallsBackRegularized) {
  DegradedMeasurement m;
  m.y = test_y();
  m.measured = {true, false, false, false};  // one row, two unknowns
  auto res = degraded_estimate(test_sparse_r(), m);
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  EXPECT_EQ(res->method, SolveMethod::kRegularizedFallback);
  EXPECT_EQ(res->paths_used, 1u);
  EXPECT_LT(res->rank, 2u);
  // The ridge solve still honors the surviving equation approximately.
  EXPECT_NEAR(res->x[0], 3.0, 0.1);
}

TEST(DegradedEstimate, FallbackShrinksTowardPrior) {
  DegradedMeasurement m;
  m.y = test_y();
  m.measured = {true, false, false, false};
  const Vector prior{0.0, 5.0};
  DegradedOptions opt;
  opt.prior = &prior;
  auto res = degraded_estimate(test_sparse_r(), m, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->method, SolveMethod::kRegularizedFallback);
  // x[1] is unconstrained by the measured row; the prior decides it.
  EXPECT_NEAR(res->x[1], 5.0, 0.1);
}

TEST(DegradedEstimate, NothingMeasuredIsStructuredError) {
  DegradedMeasurement m;
  m.y = test_y();
  m.measured = {false, false, false, false};
  auto res = degraded_estimate(test_sparse_r(), m);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.code(), ErrorCode::kEmptyInput);
}

TEST(DegradedEstimate, MaskShapeMismatchIsStructuredError) {
  DegradedMeasurement m;
  m.y = Vector{1.0, 2.0};
  m.measured = {true, true};
  auto res = degraded_estimate(test_sparse_r(), m);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.code(), ErrorCode::kDimensionMismatch);
}

TEST(DegradedEstimate, WrongWidthPriorIsStructuredError) {
  // A prior must hold one entry per link, as in sparse recovery and
  // ridge_least_squares; a wrong width is refused, not silently dropped.
  const Vector prior{0.0, 5.0, 7.0};
  DegradedOptions opt;
  opt.prior = &prior;
  auto res = degraded_estimate(test_sparse_r(),
                               DegradedMeasurement::all_measured(test_y()),
                               opt);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.code(), ErrorCode::kDimensionMismatch);
}

TEST(DegradedResidual, RestrictsToMeasuredRows) {
  DegradedMeasurement m;
  m.y = Vector{3.0, 999.0, 8.0, 13.0};  // unmeasured row holds garbage
  m.measured = {true, false, true, true};
  auto res = degraded_residual_norm1(test_sparse_r(), m, Vector{3.0, 5.0});
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(*res, 0.0, 1e-9);  // garbage row must not contribute
}

// --------------------------------------------------- checked linalg APIs --

TEST(TryPseudoInverse, EmptyAndDeficientAreErrors) {
  EXPECT_EQ(try_pseudo_inverse(Matrix{}).code(), ErrorCode::kEmptyInput);
  // Wide matrix: fewer rows than columns can never have full column rank.
  Matrix wide(1, 3, 1.0);
  EXPECT_EQ(try_pseudo_inverse(wide).code(), ErrorCode::kRankDeficient);
  // Duplicated column: numerically rank deficient.
  Matrix dup{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  EXPECT_EQ(try_pseudo_inverse(dup).code(), ErrorCode::kRankDeficient);
}

TEST(TryPseudoInverse, FullRankSucceeds) {
  auto g = try_pseudo_inverse(test_r());
  ASSERT_TRUE(g.ok());
  // G R = I for full-column-rank R.
  const Matrix gr = *g * test_r();
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(gr(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(TryLeastSquares, StructuredErrors) {
  EXPECT_EQ(try_least_squares(test_r(), Vector{1.0}).code(),
            ErrorCode::kDimensionMismatch);
  Matrix dup{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  EXPECT_EQ(try_least_squares(dup, Vector{1.0, 2.0, 3.0}).code(),
            ErrorCode::kRankDeficient);
}

TEST(RidgeLeastSquares, RejectsNonPositiveLambda) {
  EXPECT_EQ(ridge_least_squares(test_r(), test_y(), 0.0).code(),
            ErrorCode::kInvalidInput);
  EXPECT_EQ(ridge_least_squares(test_r(), test_y(), -1.0).code(),
            ErrorCode::kInvalidInput);
}

TEST(RidgeLeastSquares, SmallLambdaNearsExactSolution) {
  auto x = ridge_least_squares(test_r(), test_y(), 1e-10);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-6);
  EXPECT_NEAR((*x)[1], 5.0, 1e-6);
}

TEST(RidgeLeastSquares, DefinedOnUnderdeterminedSystems) {
  Matrix wide{{1.0, 1.0}};
  auto x = ridge_least_squares(wide, Vector{2.0}, 1e-6);
  ASSERT_TRUE(x.ok());
  // Minimum-norm flavour: mass splits evenly across the symmetric columns.
  EXPECT_NEAR((*x)[0], 1.0, 1e-3);
  EXPECT_NEAR((*x)[1], 1.0, 1e-3);
}

}  // namespace
}  // namespace scapegoat::robust
