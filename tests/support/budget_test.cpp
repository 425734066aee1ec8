// Resource-governance primitives: CancelToken/CancelSource semantics, the
// unified Budget poll (cancellation wins over timeout), and the strided
// pollers.
#include "support/budget.hpp"

#include <gtest/gtest.h>

#include <string>

namespace tveg::support {
namespace {

TEST(CancelToken, DefaultTokenIsInertAndFree) {
  const CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("anywhere"));
}

TEST(CancelToken, SourceCancelReachesEveryToken) {
  const CancelSource source;
  const CancelToken a = source.token();
  const CancelToken b = source.token();
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.cancelled());
  EXPECT_NO_THROW(a.check("steiner"));

  source.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_THROW(b.check("steiner"), CancelledError);
  try {
    a.check("aux_dcs");
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("aux_dcs"), std::string::npos);
  }
}

TEST(CancelToken, PollsCountAsHeartbeat) {
  const CancelSource source;
  const CancelToken token = source.token();
  EXPECT_EQ(source.polls(), 0u);
  token.check("a");
  token.check("a");
  source.token().check("b");
  EXPECT_EQ(source.polls(), 3u);

  // Copies of the source share the same poll count (a harness thread holds
  // one while the solve polls through another's token).
  const CancelSource copy = source;  // NOLINT(performance-*)
  EXPECT_EQ(copy.polls(), 3u);
  copy.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
}

TEST(Budget, DefaultIsUnlimitedAndDeadlineConverts) {
  const Budget unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_FALSE(unlimited.exhausted());
  EXPECT_NO_THROW(unlimited.check("x"));

  const Budget timed = Deadline::after_ms(0);
  EXPECT_FALSE(timed.unlimited());
  EXPECT_TRUE(timed.exhausted());
  EXPECT_THROW(timed.check("x"), TimeoutError);
}

TEST(Budget, CancellationWinsOverExpiredDeadline) {
  // A force-cancelled stalled solve must surface as cancelled even when its
  // deadline also lapsed while it was stuck.
  const CancelSource source;
  source.request_cancel();
  const Budget budget(Deadline::after_ms(0), source.token());
  EXPECT_TRUE(budget.exhausted());
  EXPECT_THROW(budget.check("x"), CancelledError);
}

TEST(DeadlinePoller, ReadsTheClockEveryStridePolls) {
  const Deadline expired = Deadline::after_ms(0);
  Deadline::Poller poller(expired, "loop", /*stride=*/4);
  // Three polls stay clock-free; the fourth hits the stride boundary.
  EXPECT_NO_THROW(poller.poll());
  EXPECT_NO_THROW(poller.poll());
  EXPECT_NO_THROW(poller.poll());
  EXPECT_THROW(poller.poll(), TimeoutError);
}

TEST(BudgetPoller, CancelIsObservedOnEveryPollRegardlessOfStride) {
  const CancelSource source;
  const Budget budget(Deadline(), source.token());
  Budget::Poller poller(budget, "loop", /*stride=*/1024);
  EXPECT_NO_THROW(poller.poll());
  source.request_cancel();
  // The very next poll throws — the stride only defers clock reads.
  EXPECT_THROW(poller.poll(), CancelledError);
}

TEST(BudgetPoller, ExpiredDeadlineSurfacesWithinOneStride) {
  const Budget budget(Deadline::after_ms(0));
  Budget::Poller poller(budget, "loop", /*stride=*/8);
  bool threw = false;
  for (int i = 0; i < 8 && !threw; ++i) {
    try {
      poller.poll();
    } catch (const TimeoutError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace tveg::support
