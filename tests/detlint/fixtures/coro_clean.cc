// Negative fixture: coroutine code following every rule in the
// ownership rulebook (DESIGN.md section 18). corolint must stay
// silent on all of it.
#include "fake_sim.h"

// Conditional logic around awaits spelled as if/else, ternaries only
// inside call arguments.
sim::Task IfElseAwait(Session* session, bool is_write, bool fast,
                      sim::Simulator* sim) {
  co_await sim::Delay(*sim, fast ? 1 : 100);
  int r;
  if (is_write) {
    r = co_await session->Write(1);
  } else {
    r = co_await session->Read(1);
  }
  (void)r;
}

// Parameters by pointer or by value; a Task factory (not itself a
// coroutine) may take references.
sim::Task PointerParams(Session* session, std::vector<int> lbas) {
  for (int lba : lbas) {
    co_await session->Read(lba);
  }
}

sim::Task Factory(Session& session) {
  return PointerParams(&session, {1, 2, 3});
}

// Captureless lambda coroutine: state flows through parameters.
void SpawnClean(sim::Simulator* sim) {
  auto task = [](sim::Simulator* s) -> sim::Task {
    co_await sim::Delay(*s, 1);
  };
  task(sim);
}

// Infinite loop whose frame joins its owner's frame set.
sim::Task Worker::Run() {
  auto self = co_await frames_.Join();
  for (;;) {
    co_await Tick();
  }
}

// Terminating loops need no registration.
sim::Task DrainQueue(Queue* q) {
  for (;;) {
    co_await q->Pop();
    if (q->Empty()) break;
  }
}

// Resume through the event queue only.
void DeliverClean(sim::Simulator& sim, std::coroutine_handle<> h) {
  sim.ScheduleAfter(0, [h] { h.resume(); });
}
