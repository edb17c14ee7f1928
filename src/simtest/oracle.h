#ifndef REFLEX_SIMTEST_ORACLE_H_
#define REFLEX_SIMTEST_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/io_result.h"
#include "core/protocol.h"
#include "sim/time.h"

namespace reflex::simtest {

/**
 * One observed consistency violation: what the client read versus
 * what the shadow state allowed at that point.
 */
struct DataViolation {
  std::string kind;  // "stale_read", "unknown_version", "misdirected"
  sim::TimeNs time = 0;
  uint64_t lba = 0;          // the offending sector
  uint64_t observed = 0;     // version stamp found in the payload
  uint64_t expected = 0;     // newest acceptable committed version
  std::string detail;
};

/**
 * Client-side consistency oracle: a shadow per-sector version map fed
 * from completion callbacks.
 *
 * Every write stamps its payload with a unique version id (and the
 * absolute LBA of each sector, to catch misdirected I/O). On
 * completion the oracle either *commits* the version (status kOk) or
 * parks it in the sector's *zombie* set (error or kUnknownOutcome: the
 * write may still apply at the device at any later time -- e.g. it is
 * sitting in a QoS queue while the client's timeout fired). A read
 * completing with window [issue, done] must return, for each sector,
 * a version that
 *
 *  - was the committed version at some instant of the window (the
 *    last commit at or before `issue`, or any commit inside it), or
 *  - belongs to the sector's zombie set (a lost-response or timed-out
 *    write that may have applied -- including *after* later committed
 *    writes, since a zombie request can sit queued server-side
 *    arbitrarily long), or
 *  - is an in-flight write overlapping the window, or
 *  - is version 0 (never written) when no write had definitely
 *    committed before `issue` -- the device returns zeros for
 *    unwritten sectors.
 *
 * Anything else is flagged: a *stale read* when the observed version
 * is an old committed one (a lost update or a torn cross-shard write
 * that reported success), an *unknown version* when the stamp was
 * never issued by this oracle, a *misdirection* when the embedded LBA
 * does not match the sector read. The rules are deliberately
 * permissive toward genuine races -- retransmitted idempotent reads
 * and unknown-outcome writes can never produce a false positive --
 * while still catching single dropped sub-I/Os of a cross-shard
 * write, because a write that *reported success* commits all its
 * sectors unconditionally.
 */
class ConsistencyOracle {
 public:
  /** Version stamp meaning "sector never written". */
  static constexpr uint64_t kUnwritten = 0;

  /**
   * Fills `data` (sectors * 512 bytes) with the stamp pattern for
   * `version`: each sector repeats a 16-byte {version, absolute lba}
   * record.
   */
  static void StampPayload(uint8_t* data, uint64_t version, uint64_t lba,
                           uint32_t sectors);

  /** Reads the version stamp of sector 0 of `data`. */
  static uint64_t ReadStamp(const uint8_t* data);

  /**
   * Registers a write of [lba, lba+sectors) issued at `now`; returns
   * the version id the caller must stamp into the payload before
   * submitting. Versions encode (tenant, sequence) and are unique.
   */
  uint64_t BeginWrite(int tenant, uint64_t lba, uint32_t sectors,
                      sim::TimeNs now);

  /**
   * Completes a write: kOk commits `version` on all its sectors;
   * anything else (error, timeout, unknown outcome) makes it a zombie
   * that stays acceptable forever.
   */
  void EndWrite(uint64_t version, const client::IoResult& result);

  /**
   * Validates a completed read of [lba, lba+sectors): `data` is the
   * payload as the application sees it, [issue, done] the observed
   * window. Non-kOk reads are ignored (no payload contract).
   */
  void EndRead(uint64_t lba, uint32_t sectors, const uint8_t* data,
               const client::IoResult& result);

  bool ok() const { return violations_.empty(); }
  const std::vector<DataViolation>& violations() const {
    return violations_;
  }

  int64_t reads_checked() const { return reads_checked_; }
  int64_t writes_tracked() const { return writes_tracked_; }

 private:
  struct Commit {
    uint64_t version = 0;
    sim::TimeNs issue = 0;
    sim::TimeNs done = 0;
  };
  struct SectorState {
    std::vector<Commit> commits;    // ascending completion time
    std::vector<uint64_t> zombies;  // may apply at any time, forever
  };
  struct PendingWrite {
    uint64_t lba = 0;
    uint32_t sectors = 0;
    sim::TimeNs issue = 0;
  };

  bool Acceptable(const SectorState* state, uint64_t lba, uint64_t version,
                  sim::TimeNs issue, sim::TimeNs done,
                  uint64_t* newest_committed) const;

  // detlint: allow(unordered-container) sectors_ and pending_ are only
  // looked up, inserted into and erased from, never iterated, so hash
  // layout can never reach a verdict or the order of the violations.
  template <typename V> using HashMap = std::unordered_map<uint64_t, V>;

  HashMap<SectorState> sectors_;  // by absolute sector LBA
  HashMap<PendingWrite> pending_;  // by version
  std::map<int, uint64_t> next_seq_;
  std::vector<DataViolation> violations_;
  int64_t reads_checked_ = 0;
  int64_t writes_tracked_ = 0;
};

}  // namespace reflex::simtest

#endif  // REFLEX_SIMTEST_ORACLE_H_
