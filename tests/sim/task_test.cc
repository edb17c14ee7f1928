#include "sim/task.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace reflex::sim {
namespace {

Task DelayTwice(Simulator& sim, std::vector<TimeNs>& log) {
  log.push_back(sim.Now());
  co_await Delay(sim, 100);
  log.push_back(sim.Now());
  co_await Delay(sim, 50);
  log.push_back(sim.Now());
}

TEST(TaskTest, DelayAdvancesSimTime) {
  Simulator sim;
  std::vector<TimeNs> log;
  DelayTwice(sim, log);
  sim.Run();
  EXPECT_EQ(log, (std::vector<TimeNs>{0, 100, 150}));
}

Task Producer(Simulator& sim, Promise<int> p) {
  co_await Delay(sim, 500);
  p.Set(42);
}

Task Consumer(Simulator& sim, Future<int> f, int& result, TimeNs& when) {
  result = co_await f;
  when = sim.Now();
}

TEST(TaskTest, FuturePromiseHandoff) {
  Simulator sim;
  Promise<int> p(sim);
  int result = 0;
  TimeNs when = -1;
  Consumer(sim, p.GetFuture(), result, when);
  Producer(sim, p);
  sim.Run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(when, 500);
}

TEST(TaskTest, AwaitingReadyFutureDoesNotSuspend) {
  Simulator sim;
  Promise<int> p(sim);
  p.Set(7);
  int result = 0;
  TimeNs when = -1;
  Consumer(sim, p.GetFuture(), result, when);
  sim.Run();
  EXPECT_EQ(result, 7);
  EXPECT_EQ(when, 0);
}

TEST(TaskTest, FutureReadyAndGet) {
  Simulator sim;
  Promise<int> p(sim);
  Future<int> f = p.GetFuture();
  EXPECT_FALSE(f.Ready());
  p.Set(9);
  EXPECT_TRUE(f.Ready());
  EXPECT_EQ(f.Get(), 9);
}

Task Worker(Simulator& sim, Semaphore& sem, TimeNs hold, std::vector<int>& log,
            int id) {
  co_await sem.Acquire();
  log.push_back(id);
  co_await Delay(sim, hold);
  sem.Release();
}

TEST(TaskTest, SemaphoreSerializesAccess) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> log;
  for (int i = 0; i < 4; ++i) Worker(sim, sem, 100, log, i);
  sim.Run();
  // FIFO order, one at a time.
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sem.Available(), 1);
  EXPECT_EQ(sem.Waiters(), 0u);
}

TEST(TaskTest, SemaphoreAllowsConcurrencyUpToCount) {
  Simulator sim;
  Semaphore sem(sim, 3);
  std::vector<int> log;
  TimeNs all_started = -1;
  for (int i = 0; i < 3; ++i) Worker(sim, sem, 1000, log, i);
  sim.ScheduleAt(1, [&] { all_started = static_cast<TimeNs>(log.size()); });
  sim.Run();
  EXPECT_EQ(all_started, 3);  // none had to wait
}

TEST(TaskTest, SemaphoreTryAcquire) {
  Simulator sim;
  Semaphore sem(sim, 2);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

Task ArriveAfter(Simulator& sim, Barrier& barrier, TimeNs t) {
  co_await Delay(sim, t);
  barrier.Arrive();
}

Task WaitBarrier(Barrier& barrier, TimeNs& done, Simulator& sim) {
  co_await barrier.Done();
  done = sim.Now();
}

TEST(TaskTest, BarrierWaitsForAllArrivals) {
  Simulator sim;
  Barrier barrier(sim, 3);
  TimeNs done = -1;
  WaitBarrier(barrier, done, sim);
  ArriveAfter(sim, barrier, 100);
  ArriveAfter(sim, barrier, 300);
  ArriveAfter(sim, barrier, 200);
  sim.Run();
  EXPECT_EQ(done, 300);
}

TEST(TaskTest, BarrierWithZeroExpectedIsImmediatelyDone) {
  Simulator sim;
  Barrier barrier(sim, 0);
  EXPECT_TRUE(barrier.Done().Ready());
}

Task Chain(Simulator& sim, int depth, Promise<int> out) {
  if (depth == 0) {
    out.Set(0);
    co_return;
  }
  Promise<int> inner(sim);
  Chain(sim, depth - 1, inner);
  int v = co_await inner.GetFuture();
  out.Set(v + 1);
}

TEST(TaskTest, DeepChainsDoNotOverflowStack) {
  Simulator sim;
  Promise<int> p(sim);
  Chain(sim, 5000, p);
  sim.Run();
  EXPECT_TRUE(p.GetFuture().Ready());
  EXPECT_EQ(p.GetFuture().Get(), 5000);
}

// A default Future is a placeholder without state: Promise creates the
// state, so declaring a Future to assign later allocates nothing.
TEST(TaskTest, DefaultFutureIsNeverReady) {
  Future<int> f;
  EXPECT_FALSE(f.Ready());
  Simulator sim;
  Promise<int> p(sim);
  f = p.GetFuture();
  EXPECT_FALSE(f.Ready());
  p.Set(7);
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(f.Get(), 7);
}

// --- FrameSet ---

/** Appends `id` to `log` when the frame holding it dies. */
struct DeathMark {
  std::vector<int>* log;
  int id;
  ~DeathMark() { log->push_back(id); }
};

Task JoinAndFinish(FrameSet* frames, int* steps) {
  auto self = co_await frames->Join();
  ++*steps;  // runs in the same event as the spawn: the join never parks
  EXPECT_FALSE(frames->empty());
}

TEST(FrameSetTest, JoinDoesNotSuspendAndNormalReturnUnlinks) {
  Simulator sim;
  FrameSet frames;
  EXPECT_TRUE(frames.empty());
  int steps = 0;
  JoinAndFinish(&frames, &steps);
  EXPECT_EQ(steps, 1);
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(sim.Now(), 0);
  frames.Clear();  // nothing joined: a no-op
  EXPECT_TRUE(frames.empty());
}

Task ParkOnFuture(FrameSet* frames, Future<Unit> f, std::vector<int>* log,
                  int id, int* resumed) {
  auto self = co_await frames->Join();
  DeathMark mark{log, id};
  co_await f;
  ++*resumed;
}

Task ParkOnDelay(FrameSet* frames, Simulator* sim, TimeNs delay,
                 std::vector<int>* log, int id, int* resumed) {
  auto self = co_await frames->Join();
  DeathMark mark{log, id};
  co_await Delay(*sim, delay);
  ++*resumed;
}

TEST(FrameSetTest, TeardownDestroysParkedFramesNewestFirst) {
  Simulator sim;
  Promise<Unit> later(sim);
  Promise<Unit> never(sim);
  std::vector<int> destroyed;
  int resumed = 0;
  {
    FrameSet frames;
    ParkOnFuture(&frames, later.GetFuture(), &destroyed, 1, &resumed);
    ParkOnDelay(&frames, &sim, 100, &destroyed, 2, &resumed);
    ParkOnFuture(&frames, never.GetFuture(), &destroyed, 3, &resumed);
    sim.RunUntil(50);
    EXPECT_FALSE(frames.empty());
    EXPECT_TRUE(destroyed.empty());
  }
  EXPECT_EQ(destroyed, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  // The simulator runs on: the Delay's timer was cancelled and the
  // Future's waiter dropped, so nothing resumes a freed frame.
  later.Set(Unit{});
  sim.Run();
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(sim.Now(), 50);
}

TEST(FrameSetTest, FrameFinishesWhileSiblingsStayParked) {
  Simulator sim;
  Promise<Unit> never(sim);
  std::vector<int> destroyed;
  int resumed = 0;
  FrameSet frames;
  ParkOnFuture(&frames, never.GetFuture(), &destroyed, 1, &resumed);
  ParkOnDelay(&frames, &sim, 10, &destroyed, 2, &resumed);
  ParkOnDelay(&frames, &sim, 1000, &destroyed, 3, &resumed);
  sim.RunUntil(100);
  // The middle frame returned and unlinked itself; its neighbours
  // stay joined.
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(destroyed, (std::vector<int>{2}));
  EXPECT_FALSE(frames.empty());
  frames.Clear();
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(destroyed, (std::vector<int>{2, 3, 1}));
  sim.Run();
  EXPECT_EQ(resumed, 1);
}

Task AwaitInt(Future<int> f) { (void)co_await f; }

TEST(TaskDeathTest, GetOnDefaultFutureFailsCheck) {
  const Future<int> f;
  EXPECT_DEATH((void)f.Get(), "check failed");
}

TEST(TaskDeathTest, AwaitingDefaultFutureFailsCheck) {
  EXPECT_DEATH(AwaitInt(Future<int>()), "check failed");
}

}  // namespace
}  // namespace reflex::sim
