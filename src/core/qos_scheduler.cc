#include "core/qos_scheduler.h"

#include <algorithm>

#include "sim/logging.h"

namespace reflex::core {

QosScheduler::QosScheduler(SchedulerShared& shared,
                           const RequestCostModel& cost_model, Config config)
    : shared_(shared), cost_model_(cost_model), config_(config) {
  policy_ = MakeQosPolicy(
      QosPolicyContext{&shared_, &config_, &metrics_, &on_neg_limit_});
}

void QosScheduler::AddTenant(Tenant* tenant) {
  REFLEX_CHECK(tenant != nullptr);
  REFLEX_CHECK(tenant->scheduler_ == nullptr);
  tenant->scheduler_ = this;
  queued_requests_ += static_cast<int64_t>(tenant->queue_.size());
  if (tenant->IsLatencyCritical()) {
    lc_tenants_.push_back(tenant);
  } else {
    tenant->be_rate_ = &shared_.be_token_rate;
    tenant->be_slot_ = be_tenants_.size();
    be_tenants_.push_back(tenant);
    if (be_backlog_.size() * 64 < be_tenants_.size()) {
      be_backlog_.push_back(0);
    }
    SetBacklogBit(tenant->be_slot_, NeedsVisit(*tenant));
    be_io_.inflight_bytes += tenant->inflight_bytes_;
    be_io_.completed_bytes += tenant->completed_bytes_;
  }
  policy_->OnAddTenant(*tenant);
}

void QosScheduler::RemoveTenant(Tenant* tenant) {
  auto erase_from = [tenant](std::vector<Tenant*>& v) {
    auto it = std::find(v.begin(), v.end(), tenant);
    if (it == v.end()) return false;
    v.erase(it);
    return true;
  };
  REFLEX_CHECK(tenant->scheduler_ == this);
  // A retiring tenant takes its balance with it; record the amount so
  // the token-conservation ledger still closes.
  shared_.tokens_retired_total += tenant->tokens_;
  tenant->tokens_ = 0.0;
  if (!erase_from(lc_tenants_)) {
    const size_t idx = tenant->be_slot_;
    REFLEX_CHECK(idx < be_tenants_.size() && be_tenants_[idx] == tenant);
    be_tenants_.erase(be_tenants_.begin() + static_cast<long>(idx));
    // Every later tenant moves down one slot, and its backlog bit with
    // it; the vacated last slot is cleared.
    for (size_t i = idx; i < be_tenants_.size(); ++i) {
      be_tenants_[i]->be_slot_ = i;
      SetBacklogBit(i, NeedsVisit(*be_tenants_[i]));
    }
    SetBacklogBit(be_tenants_.size(), false);
    // Erasing below the cursor shifts every later tenant down one
    // slot; keep the cursor pointing at the same next-to-serve tenant
    // so the round-robin rotation is unaffected by removals.
    if (idx < be_cursor_) --be_cursor_;
    if (be_cursor_ >= be_tenants_.size()) be_cursor_ = 0;
    be_io_.inflight_bytes -= tenant->inflight_bytes_;
    be_io_.completed_bytes -= tenant->completed_bytes_;
  }
  queued_requests_ -= static_cast<int64_t>(tenant->queue_.size());
  tenant->scheduler_ = nullptr;
  policy_->OnRemoveTenant(*tenant);
}

void QosScheduler::Enqueue(sim::TimeNs now, Tenant* tenant, PendingIo io) {
  REFLEX_CHECK(tenant != nullptr);
  if (io.msg.type == ReqType::kBarrier) {
    io.cost = 0.0;  // barriers consume ordering, not device bandwidth
  } else {
    const bool is_read = io.msg.type == ReqType::kRead;
    const uint32_t bytes = io.msg.sectors * kSectorBytes;
    io.cost = cost_model_.TokensFor(
        is_read ? flash::FlashOp::kRead : flash::FlashOp::kWrite, bytes,
        shared_.read_ratio.IsReadOnly(now));
  }
  io.enqueue_time = now;
  io.MarkStage(obs::Stage::kEnqueued, now);
  tenant->queue_.push_back(std::move(io));
  tenant->queued_cost_ += tenant->queue_.back().cost;
  // Book the request with whichever scheduler the tenant is bound to;
  // an unbound tenant's queue is counted when it is next bound.
  if (QosScheduler* owner = tenant->scheduler_) {
    ++owner->queued_requests_;
    if (!tenant->IsLatencyCritical()) {
      owner->SetBacklogBit(tenant->be_slot_, true);
    }
  }
}

bool QosScheduler::FrontBlockedByBarrier(const Tenant& t) {
  return !t.queue_.empty() &&
         t.queue_.front().msg.type == ReqType::kBarrier && t.inflight > 0;
}

void QosScheduler::SubmitFront(sim::TimeNs now, Tenant& t,
                               const SubmitFn& submit) {
  PendingIo io = std::move(t.queue_.front());
  t.queue_.pop_front();
  --queued_requests_;
  t.queued_cost_ -= io.cost;
  if (t.queued_cost_ < 0.0) t.queued_cost_ = 0.0;
  if (!config_.enforce) {
    // Pass-through mode generates no tokens in RunRound, but spend
    // accounting below still runs (the spent counters feed exported
    // utilization metrics). Grant the exact cost here so the balance
    // nets to zero and the conservation ledger (generated == spent +
    // retired + ...) closes instead of the balance drifting
    // unboundedly negative and being "retired" at unregistration.
    // Ledger-only: the tokens_generated *metric* stays untouched so
    // enforcement-off exports are unchanged.
    t.tokens_ += io.cost;
    shared_.tokens_generated_total += io.cost;
  }
  t.tokens_ -= io.cost;
  t.tokens_spent += io.cost;
  shared_.tokens_spent_total += io.cost;
  io.MarkStage(obs::Stage::kGranted, now);
  if (metrics_.enabled()) {
    metrics_.tokens_spent->Add(io.cost);
    metrics_.requests_submitted->Increment();
  }
  if (io.msg.type != ReqType::kBarrier) {
    const bool is_read = io.msg.type == ReqType::kRead;
    shared_.read_ratio.Observe(now, is_read);
    if (is_read) {
      ++t.submitted_reads;
    } else {
      ++t.submitted_writes;
    }
  }
  policy_->OnSubmit(t, io);
  submit(t, std::move(io));
}

int QosScheduler::RunRound(sim::TimeNs now, const SubmitFn& submit) {
  if (!has_run_) {
    prev_round_time_ = now;
    has_run_ = true;
  }
  // Time never runs backwards; ServeIdleBe relies on dt >= 0.
  REFLEX_CHECK(now >= prev_round_time_);
  const sim::TimeNs gap = now - prev_round_time_;
  const double dt = sim::ToSeconds(gap);
  prev_round_time_ = now;
  int submitted = 0;
  if (metrics_.enabled()) {
    metrics_.rounds->Increment();
    metrics_.round_gap_ns->Record(gap);
  }

  if (!config_.enforce) {
    // Pass-through mode: no rate limiting, submit everything
    // (barriers still gate: they are correctness, not QoS).
    for (Tenant* tp : lc_tenants_) {
      while (!tp->queue_.empty() && !FrontBlockedByBarrier(*tp)) {
        SubmitFront(now, *tp, submit);
        ++submitted;
      }
    }
    const size_t n = be_tenants_.size();
    for (size_t s = NextBacklogged(0, n); s < n; s = NextBacklogged(s + 1, n)) {
      Tenant& t = *be_tenants_[s];
      while (!t.queue_.empty() && !FrontBlockedByBarrier(t)) {
        SubmitFront(now, t, submit);
        ++submitted;
      }
      SetBacklogBit(s, NeedsVisit(t));
    }
    MarkRoundComplete();
    return submitted;
  }

  policy_->BeginRound(now, dt, be_io_);

  // --- Latency-critical tenants (Alg. 1 lines 4-12) ---
  for (Tenant* tp : lc_tenants_) {
    Tenant& t = *tp;
    policy_->AccrueLc(t, now, dt);
    while (!t.queue_.empty() && policy_->AdmitLc(t, t.queue_.front()) &&
           !FrontBlockedByBarrier(t)) {
      SubmitFront(now, t, submit);
      ++submitted;
    }
    policy_->FinishLc(t);
  }

  // --- Best-effort tenants, round-robin (Alg. 1 lines 13-21) ---
  // Rotation order is slots [be_cursor_, n) then [0, be_cursor_).
  // Backlogged tenants are visited one by one; each run of idle
  // tenants is served in one step at its place in the order, before
  // the next tenant's claim.
  const size_t n = be_tenants_.size();
  int64_t idle = 0;
  size_t next = be_cursor_;  // first slot not yet served
  size_t end = n;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t s = NextBacklogged(next, end); s < end;
         s = NextBacklogged(s + 1, end)) {
      idle += static_cast<int64_t>(s - next);
      if (idle > 0) policy_->ServeIdleBe(idle, dt);
      idle = 0;
      Tenant& t = *be_tenants_[s];
      policy_->AccrueBe(t, now, dt);
      while (!t.queue_.empty() && policy_->AdmitBe(t, t.queue_.front()) &&
             !FrontBlockedByBarrier(t)) {
        SubmitFront(now, t, submit);
        ++submitted;
      }
      policy_->FinishBe(t);
      SetBacklogBit(s, NeedsVisit(t));
      next = s + 1;
    }
    idle += static_cast<int64_t>(end - next);
    next = 0;
    end = be_cursor_;
  }
  if (idle > 0) policy_->ServeIdleBe(idle, dt);
  if (n > 0) be_cursor_ = (be_cursor_ + 1) % n;

  MarkRoundComplete();
  return submitted;
}

void QosScheduler::MarkRoundComplete() {
  // Alg. 1 lines 22-23: once every thread has completed at least one
  // round, the last thread resets the global bucket. Lock-free: each
  // thread marks once per epoch; the thread that completes the set
  // performs the reset and advances the epoch.
  const uint64_t epoch = shared_.reset_epoch.load(std::memory_order_acquire);
  if (local_epoch_ != epoch) {
    local_epoch_ = epoch;
    marked_this_epoch_ = false;
  }
  if (marked_this_epoch_) return;
  marked_this_epoch_ = true;
  const int marked =
      shared_.threads_marked.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (marked >= shared_.num_threads) {
    shared_.tokens_discarded_total += shared_.global_bucket.Reset();
    shared_.threads_marked.store(0, std::memory_order_release);
    shared_.reset_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
}

}  // namespace reflex::core
