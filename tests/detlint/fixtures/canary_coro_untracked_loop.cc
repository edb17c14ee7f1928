// Planted canary: infinite-loop coroutine that never joins a frame set
// (co_await frames_.Join()), so no owner can destroy it when the
// simulation ends mid-await.
#include "fake_sim.h"

sim::Task PollForever(sim::Simulator* sim, Session* session) {
  for (;;) {
    co_await sim::Delay(*sim, 100);
    co_await session->Read(0);
  }
}

sim::Task SpinForever(sim::Simulator* sim) {
  while (true) {
    co_await sim::Delay(*sim, 1);
  }
}
