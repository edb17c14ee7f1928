#include "cluster/cluster_client.h"

#include <bit>
#include <utility>

#include "sim/logging.h"

namespace reflex::cluster {

const char* SteeringPolicyName(SteeringPolicy policy) {
  switch (policy) {
    case SteeringPolicy::kPrimaryOnly:
      return "primary_only";
    case SteeringPolicy::kPowerOfTwo:
      return "power_of_two";
    case SteeringPolicy::kFullScan:
      return "full_scan";
  }
  return "unknown";
}

bool SteeringPolicyFromName(const std::string& name, SteeringPolicy* out) {
  if (name == "primary_only") {
    *out = SteeringPolicy::kPrimaryOnly;
  } else if (name == "power_of_two") {
    *out = SteeringPolicy::kPowerOfTwo;
  } else if (name == "full_scan") {
    *out = SteeringPolicy::kFullScan;
  } else {
    return false;
  }
  return true;
}

ClusterSession::ClusterSession(
    ClusterClient& client, ClusterTenant tenant,
    std::vector<std::unique_ptr<client::TenantSession>> sessions,
    bool owns_tenant)
    : client_(client),
      tenant_(std::move(tenant)),
      shard_sessions_(std::move(sessions)),
      shard_latency_(shard_sessions_.size()),
      shard_reads_served_(shard_sessions_.size(), 0),
      steer_rng_(client.options().client.seed, "cluster.steering"),
      owns_tenant_(owns_tenant) {}

ClusterSession::~ClusterSession() {
  // Frames parked mid-await (session destroyed with I/O in flight, or
  // the simulation ended first) await the shard sessions: destroy them
  // before anything below tears those down.
  frames_.Clear();
  if (owns_tenant_) {
    // Drop the per-shard sessions first: they do not own the
    // registrations, so the cluster-wide unregister below is the only
    // teardown.
    shard_sessions_.clear();
    client_.cluster().control_plane().UnregisterTenant(tenant_);
  }
}

int ClusterSession::num_lanes() const {
  return shard_sessions_.empty() ? 1 : shard_sessions_[0]->num_lanes();
}

uint64_t ClusterSession::capacity_sectors() const {
  // The local routing copy (migration never changes capacity, so this
  // equals the master's).
  return client_.local_map().capacity_sectors();
}

uint32_t ClusterSession::sector_bytes() const { return core::kSectorBytes; }

uint32_t ClusterSession::sectors_per_page() const {
  return client_.cluster().device(0).profile().SectorsPerPage();
}

sim::Future<client::IoResult> ClusterSession::Read(uint64_t lba,
                                                   uint32_t sectors,
                                                   uint8_t* data, int lane) {
  return Submit(client::IoOp::kRead, lba, sectors, data, lane);
}

sim::Future<client::IoResult> ClusterSession::Write(uint64_t lba,
                                                    uint32_t sectors,
                                                    uint8_t* data,
                                                    int lane) {
  return Submit(client::IoOp::kWrite, lba, sectors, data, lane);
}

sim::Future<client::IoResult> ClusterSession::Submit(client::IoOp op,
                                                     uint64_t lba,
                                                     uint32_t sectors,
                                                     uint8_t* data,
                                                     int lane) {
  ++requests_issued_;
  sim::Promise<client::IoResult> promise(client_.cluster().sim());
  auto future = promise.GetFuture();
  RunIo(op, lba, sectors, data, lane, std::move(promise));
  return future;
}

namespace {

/** Where extent `e`'s payload sits in the logical I/O's buffer. */
uint8_t* ExtentChunk(uint8_t* data, const ShardExtent& e) {
  if (data == nullptr) return nullptr;
  return data + static_cast<size_t>(e.buffer_offset_sectors) *
                    core::kSectorBytes;
}

/** The bit of the `n`th (0-based) set bit of `mask`. */
uint32_t NthSetBit(uint32_t mask, uint64_t n) {
  for (; n > 0; --n) mask &= mask - 1;
  return mask & (~mask + 1);
}

}  // namespace

sim::Task ClusterSession::RunIo(client::IoOp op, uint64_t lba,
                                uint32_t sectors, uint8_t* data, int lane,
                                sim::Promise<client::IoResult> promise) {
  auto self = co_await frames_.Join();
  sim::Simulator& sim = client_.cluster().sim();
  client::IoResult result;
  result.issue_time = sim.Now();
  for (int attempt = 0;; ++attempt) {
    result.status = core::ReqStatus::kOk;
    // A kWrongShard within this budget is stale routing, not a fault:
    // it reissues the whole request below instead of failing over or
    // marking anyone dirty. Once the budget is spent it degrades to
    // the ordinary failure path.
    const bool can_retry = attempt < kMaxWrongShardRetries;
    bool wrong_shard = false;
    // Route through the client's local map copy: a migration that
    // commits on the master is invisible here until RefreshMap(), which
    // is exactly the staleness kWrongShard exists to catch.
    const std::vector<ShardExtent> extents =
        client_.local_map().Split(lba, sectors);
    if (attempt == 0 && extents.size() > 1) ++requests_split_;
    // Live, tried and failed placements are uint32_t ordinal bitmasks.
    REFLEX_CHECK(client_.local_map().replication() <= 32);

    if (op == client::IoOp::kRead) {
      // One in-flight read per extent: issue every extent's steered
      // first choice before awaiting any, so replicas work in parallel
      // and the request completes when the slowest extent does.
      struct ExtentRead {
        /** Placements that may serve (not dirty); 0 fails closed -- a
         * dirty copy missed a committed write, so it would read stale. */
        uint32_t live = 0;
        uint32_t tried = 0;
        size_t serving = 0;  // ordinal in flight
        sim::Future<client::IoResult> future;
      };
      std::vector<ExtentRead> reads(extents.size());
      for (size_t i = 0; i < extents.size(); ++i) {
        const ShardExtent& e = extents[i];
        ExtentRead& st = reads[i];
        for (size_t k = 0; k < e.targets.size(); ++k) {
          if (!client_.IsDirty(e.targets[k].shard_index)) st.live |= 1u << k;
        }
        if (st.live == 0) continue;
        st.serving = SteerChoice(e.targets, st.live);
        st.tried = 1u << st.serving;
        const ReplicaTarget& t = e.targets[st.serving];
        st.future = shard_sessions_[t.shard_index]->Read(
            t.shard_lba, e.sectors, ExtentChunk(data, e), lane);
      }
      for (size_t i = 0; i < extents.size(); ++i) {
        const ShardExtent& e = extents[i];
        ExtentRead& st = reads[i];
        if (st.live == 0) {
          if (result.ok()) result.status = core::ReqStatus::kDeviceError;
          continue;
        }
        client::IoResult r = co_await st.future;
        // Failover: retry the shallowest untried live replica until a
        // copy serves the read or the set is exhausted.
        while (!r.ok()) {
          if (r.status == core::ReqStatus::kWrongShard && can_retry) {
            // Every replica in this (old) placement is equally stale.
            wrong_shard = true;
            break;
          }
          if (r.status == core::ReqStatus::kTimedOut) {
            client_.PenalizeShard(e.targets[st.serving].shard_index);
          }
          const uint32_t untried = st.live & ~st.tried;
          if (untried == 0) break;
          ++read_failovers_;
          st.serving = Shallowest(e.targets, untried);
          st.tried |= 1u << st.serving;
          const ReplicaTarget& t = e.targets[st.serving];
          r = co_await shard_sessions_[t.shard_index]->Read(
              t.shard_lba, e.sectors, ExtentChunk(data, e), lane);
        }
        if (r.ok()) {
          // Attribution follows the shard that actually served this
          // sub-read -- after steering or failover that is not
          // necessarily the primary.
          const int serving = e.targets[st.serving].shard_index;
          shard_latency_[serving].Record(r.Latency());
          ++shard_reads_served_[serving];
        } else if (result.ok()) {
          // First failing extent's status wins (extents are awaited in
          // logical-LBA order, so the reported status is deterministic).
          result.status = r.status;
        }
      }
    } else {
      const uint64_t version = client_.NextWriteVersion();
      // Every placement of every extent -- dirty ones included, so a
      // lagging copy's divergence stays bounded -- is written in
      // parallel; an extent commits when at least one copy lands.
      // Replicas that failed while a sibling succeeded are marked dirty
      // (they now miss `version`) and serve no reads until reinstated.
      std::vector<sim::Future<client::IoResult>> writes;
      writes.reserve(extents.size() *
                     static_cast<size_t>(client_.local_map().replication()));
      for (const ShardExtent& e : extents) {
        for (const ReplicaTarget& t : e.targets) {
          writes.push_back(shard_sessions_[t.shard_index]->Write(
              t.shard_lba, e.sectors, ExtentChunk(data, e), lane));
        }
      }
      size_t next = 0;
      for (const ShardExtent& e : extents) {
        int ok_live = 0;
        core::ReqStatus first_fail = core::ReqStatus::kOk;
        uint32_t failed = 0;
        for (size_t k = 0; k < e.targets.size(); ++k) {
          sim::Future<client::IoResult>& write = writes[next++];
          const client::IoResult r = co_await write;
          const int shard = e.targets[k].shard_index;
          if (r.ok()) {
            // Per-shard service latency of the copy this shard wrote.
            shard_latency_[shard].Record(r.Latency());
            // Only a copy on a *readable* (non-dirty) replica can
            // commit the extent: a dirty replica serves no reads, so
            // data held only there would make every later read stale.
            if (!client_.IsDirty(shard)) ++ok_live;
            continue;
          }
          if (first_fail == core::ReqStatus::kOk) first_fail = r.status;
          if (r.status == core::ReqStatus::kWrongShard && can_retry) {
            // The shard no longer owns this placement (or is draining
            // it). It must NOT be marked dirty -- it still serves every
            // range it does own.
            wrong_shard = true;
          } else {
            failed |= 1u << k;
          }
        }
        if (ok_live == 0) {
          // No readable copy landed: the extent fails and nobody is
          // marked dirty (clean replicas missed nothing *committed*;
          // any copy that did land is a zombie the client never
          // advertises).
          if (result.ok()) {
            result.status = first_fail != core::ReqStatus::kOk
                                ? first_fail
                                : core::ReqStatus::kDeviceError;
          }
          continue;
        }
        for (; failed != 0; failed &= failed - 1) {
          client_.MarkDirty(
              e.targets[static_cast<size_t>(std::countr_zero(failed))]
                  .shard_index,
              version);
        }
      }
    }
    if (!wrong_shard) break;
    // Reissuing the whole request is idempotent (same payload, every
    // replica rewritten) and the refreshed map routes the bounced
    // extent to its post-migration owner. Doubling backoff: early
    // retries catch a cutover that already committed (refresh
    // suffices); later ones outwait a drain window that is still
    // bouncing writes.
    ++wrong_shard_retries_;
    client_.RefreshMap();
    co_await sim::Delay(sim, kWrongShardBackoffBase << attempt);
  }
  result.complete_time = sim.Now();
  promise.Set(result);
}

size_t ClusterSession::Shallowest(const std::vector<ReplicaTarget>& targets,
                                  uint32_t mask) const {
  // Shallower estimated queue wins; ties break by shard id so the
  // choice is deterministic for identical hints.
  size_t best = static_cast<size_t>(std::countr_zero(mask));
  for (mask &= mask - 1; mask != 0; mask &= mask - 1) {
    const size_t i = static_cast<size_t>(std::countr_zero(mask));
    const double di = client_.EffectiveQueueDepth(targets[i].shard_index);
    const double db = client_.EffectiveQueueDepth(targets[best].shard_index);
    if (di < db || (di == db && targets[i].shard_id < targets[best].shard_id)) {
      best = i;
    }
  }
  return best;
}

size_t ClusterSession::SteerChoice(const std::vector<ReplicaTarget>& targets,
                                   uint32_t live) {
  const int n = std::popcount(live);
  const SteeringPolicy policy = client_.options().steering;
  if (n == 1 || policy == SteeringPolicy::kPrimaryOnly) {
    return static_cast<size_t>(std::countr_zero(live));
  }
  if (policy == SteeringPolicy::kPowerOfTwo && n > 2) {
    // Two distinct uniform draws; the RNG is consumed only on this
    // path, so R<=2 configurations draw nothing and stay bit-identical
    // to their unreplicated runs.
    const uint64_t i = steer_rng_.NextBounded(static_cast<uint64_t>(n));
    uint64_t j = steer_rng_.NextBounded(static_cast<uint64_t>(n - 1));
    if (j >= i) ++j;
    live = NthSetBit(live, i) | NthSetBit(live, j);
  }
  return Shallowest(targets, live);
}

ClusterClient::ClusterClient(FlashCluster& cluster, net::Machine* machine)
    : ClusterClient(cluster, machine, Options{}) {}

ClusterClient::ClusterClient(FlashCluster& cluster, net::Machine* machine,
                             Options options)
    : cluster_(cluster),
      machine_(machine),
      options_(options),
      local_map_(cluster.shard_map()) {
  for (int i = 0; i < cluster_.num_shards(); ++i) {
    client::ReflexClient::Options shard_options = options_.client;
    shard_options.seed =
        options_.client.seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    clients_.push_back(std::make_unique<client::ReflexClient>(
        cluster_.sim(), cluster_.server(i), machine_, shard_options));
    clients_.back()->set_hint_listener(
        [this, i](uint32_t depth) { ObserveHint(i, depth); });
    // All cluster traffic is epoch-stamped from the start, so a range
    // that later migrates away can tell this client's pre-cutover
    // routing from fresh routing.
    clients_.back()->set_map_epoch(local_map_.epoch());
  }
  hints_.resize(static_cast<size_t>(cluster_.num_shards()));
  dirty_since_.assign(static_cast<size_t>(cluster_.num_shards()), 0);
}

void ClusterClient::RefreshMap() {
  local_map_ = cluster_.shard_map();
  for (auto& client : clients_) {
    client->set_map_epoch(local_map_.epoch());
  }
}

void ClusterClient::ObserveHint(int shard, uint32_t depth) {
  HintState& h = hints_[static_cast<size_t>(shard)];
  h.depth = static_cast<double>(depth);
  h.at = cluster_.sim().Now();
  h.seen = true;
}

double ClusterClient::EffectiveQueueDepth(int shard) const {
  const HintState& h = hints_[static_cast<size_t>(shard)];
  if (!h.seen) return kHintPrior;
  const sim::TimeNs age = cluster_.sim().Now() - h.at;
  if (age >= kHintStaleAfter) return kHintPrior;
  // Linear decay from the observed depth back to the prior: fresh
  // hints dominate, stale ones fade instead of pinning a dead shard's
  // last-known load forever.
  const double f = static_cast<double>(age) /
                   static_cast<double>(kHintStaleAfter);
  return h.depth + (kHintPrior - h.depth) * f;
}

void ClusterClient::MarkDirty(int shard, uint64_t version) {
  uint64_t& since = dirty_since_[static_cast<size_t>(shard)];
  if (since == 0) since = version;
}

void ClusterClient::PenalizeShard(int shard) {
  HintState& h = hints_[static_cast<size_t>(shard)];
  h.depth = kPenaltyDepth;
  h.at = cluster_.sim().Now();
  h.seen = true;
}

std::unique_ptr<ClusterSession> ClusterClient::OpenSession(
    const core::SloSpec& slo, core::TenantClass cls, AdmitResult* result) {
  AdmitResult local;
  if (result == nullptr) result = &local;
  ClusterTenant tenant =
      cluster_.control_plane().RegisterTenant(slo, cls, result);
  if (!tenant.valid()) return nullptr;
  // MakeSession rolls the registration back if any shard refuses the
  // connection after admission.
  return MakeSession(std::move(tenant), /*owns_tenant=*/true, result);
}

std::unique_ptr<ClusterSession> ClusterClient::AttachSession(
    const ClusterTenant& tenant, core::ReqStatus* status) {
  if (!tenant.valid()) return nullptr;
  AdmitResult result;
  auto session = MakeSession(tenant, /*owns_tenant=*/false, &result);
  if (status != nullptr) *status = result.status;
  return session;
}

std::unique_ptr<ClusterSession> ClusterClient::MakeSession(
    ClusterTenant tenant, bool owns_tenant, AdmitResult* result) {
  REFLEX_CHECK(static_cast<int>(tenant.handles.size()) ==
               cluster_.num_shards());
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  for (int i = 0; i < cluster_.num_shards(); ++i) {
    core::ReqStatus shard_status = core::ReqStatus::kOk;
    auto s = clients_[i]->AttachSession(tenant.handles[i], &shard_status);
    if (s == nullptr) {
      if (owns_tenant) {
        cluster_.control_plane().UnregisterTenant(tenant);
      }
      if (result != nullptr) {
        result->kind = owns_tenant ? AdmitResult::Kind::kRolledBack
                                   : AdmitResult::Kind::kRejectedShard;
        result->shard = i;
        result->status = shard_status;
      }
      return nullptr;
    }
    sessions.push_back(std::move(s));
  }
  if (result != nullptr) *result = AdmitResult{};
  return std::unique_ptr<ClusterSession>(new ClusterSession(
      *this, std::move(tenant), std::move(sessions), owns_tenant));
}

}  // namespace reflex::cluster
