// Regression tests for the REFLEX_CORO_DEBUG frame registry: the
// dynamic half of the coroutine ownership rulebook (DESIGN.md section
// 18). Every test skips in a non-debug build -- the registry hooks
// compile away -- and the death tests prove the two assertions fire:
// ~Simulator() on a leaked frame, and Semaphore::Release on a
// destroyed waiter. The leaked-frame case is exactly the class
// ASan/LSan cannot catch: the handle is stored, so the frame is
// reachable, yet nothing will ever resume or free it.

#include "sim/coro_debug.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::sim {
namespace {

Task CompleteAfterDelay(Simulator* sim, int* done) {
  co_await Delay(*sim, 100);
  *done = 1;
}

TEST(CoroDebugTest, CountersTrackFrameLifetimes) {
  if (!CoroDebugEnabled()) {
    GTEST_SKIP() << "built without REFLEX_CORO_DEBUG";
  }
  const CoroDebugStats before = CoroDebugGetStats();
  {
    Simulator sim;
    int done = 0;
    CompleteAfterDelay(&sim, &done);
    const CoroDebugStats mid = CoroDebugGetStats();
    EXPECT_EQ(mid.created, before.created + 1);
    EXPECT_EQ(mid.live, before.live + 1);  // parked on the Delay
    sim.Run();
    EXPECT_EQ(done, 1);
  }
  const CoroDebugStats after = CoroDebugGetStats();
  EXPECT_EQ(after.created, before.created + 1);
  EXPECT_EQ(after.destroyed, before.destroyed + 1);
  EXPECT_EQ(after.live, before.live);
}

Task ParkForever(Future<Unit> never, FrameSet* frames) {
  auto self = co_await frames->Join();
  co_await never;  // the promise is never set; the frame parks here
}

TEST(CoroDebugTest, OwnerDestroyingParkedFrameIsClean) {
  if (!CoroDebugEnabled()) {
    GTEST_SKIP() << "built without REFLEX_CORO_DEBUG";
  }
  const CoroDebugStats before = CoroDebugGetStats();
  {
    Simulator sim;
    Promise<Unit> promise(sim);
    FrameSet frames;
    ParkForever(promise.GetFuture(), &frames);
    sim.Run();
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(CoroDebugGetStats().live, before.live + 1);
    // The ownership rule: the owner destroys the parked frame before
    // the simulator dies.
    frames.Clear();
    EXPECT_TRUE(frames.empty());
    EXPECT_EQ(CoroDebugGetStats().live, before.live);
  }
  const CoroDebugStats after = CoroDebugGetStats();
  EXPECT_EQ(after.live, before.live);
}

TEST(CoroDebugDeathTest, LeakedFrameTripsTeardownAssert) {
  if (!CoroDebugEnabled()) {
    GTEST_SKIP() << "built without REFLEX_CORO_DEBUG";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The set outlives the Simulator, so the frame is reachable the
  // whole time -- LSan would stay silent -- but the registry still
  // counts it as live and the teardown assert fires, naming the
  // creation site.
  EXPECT_DEATH(
      {
        FrameSet frames;
        Simulator sim;
        Promise<Unit> promise(sim);
        ParkForever(promise.GetFuture(), &frames);
        sim.Run();
      },
      "still alive at Simulator teardown");
}

Task AcquireOnce(Semaphore* sem, FrameSet* frames, int* got) {
  auto self = co_await frames->Join();
  co_await sem->Acquire();
  *got = 1;
}

TEST(CoroDebugDeathTest, SemaphoreReleaseOfDestroyedWaiterPanics) {
  if (!CoroDebugEnabled()) {
    GTEST_SKIP() << "built without REFLEX_CORO_DEBUG";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The waiter parks in the semaphore's FIFO, its owner destroys the
  // frame (legal only once it has left every wait queue -- this is the
  // violation), then Release() schedules a resume of freed memory.
  // Under REFLEX_CORO_DEBUG the resume path catches it; without the
  // registry this would be silent heap corruption.
  EXPECT_DEATH(
      {
        Simulator sim;
        Semaphore sem(sim, 0);
        FrameSet frames;
        int got = 0;
        AcquireOnce(&sem, &frames, &got);
        sim.Run();
        frames.Clear();  // owner tears the waiter down while queued
        sem.Release();
        sim.Run();
      },
      "resume a destroyed coroutine frame");
}

TEST(CoroDebugTest, SemaphoreReleaseOfLiveWaiterResumes) {
  Simulator sim;
  Semaphore sem(sim, 0);
  FrameSet frames;
  int got = 0;
  AcquireOnce(&sem, &frames, &got);
  sim.Run();
  EXPECT_EQ(got, 0);
  EXPECT_FALSE(frames.empty());
  sem.Release();
  sim.Run();
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(frames.empty());  // the finished frame left the set
}

}  // namespace
}  // namespace reflex::sim
