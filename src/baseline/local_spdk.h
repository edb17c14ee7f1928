#ifndef REFLEX_BASELINE_LOCAL_SPDK_H_
#define REFLEX_BASELINE_LOCAL_SPDK_H_

#include <cstdint>
#include <vector>

#include "client/io_result.h"
#include "client/io_session.h"
#include "flash/flash_device.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::baseline {

/**
 * Local Flash access through SPDK-style user-space NVMe queues: no
 * kernel, no network -- the best case the paper compares against
 * (Table 2 "Local", Figure 4 "Local-nT"). Each thread polls its own
 * queue pair; the per-request CPU cost reproduces the paper's
 * observation that one core sustains ~870K IOPS and two cores saturate
 * a 1M IOPS device.
 *
 * As an IoSession, lane k is polling thread k; geometry comes from the
 * device profile and the tenant handle is always 0 (no tenants).
 */
class LocalSpdkService : public client::IoSession {
 public:
  struct Options {
    int num_threads = 1;

    /** Polling-mode driver CPU per request (submit + completion). */
    sim::TimeNs cpu_per_req = sim::TimeNs(1150);

    uint64_t seed = 33;
  };

  LocalSpdkService(sim::Simulator& sim, flash::FlashDevice& device,
                   Options options);
  ~LocalSpdkService() override;

  sim::Future<client::IoResult> Read(uint64_t lba, uint32_t sectors,
                                     uint8_t* data = nullptr,
                                     int lane = -1) override {
    return Submit(/*is_read=*/true, lba, sectors, data, lane);
  }
  sim::Future<client::IoResult> Write(uint64_t lba, uint32_t sectors,
                                      uint8_t* data = nullptr,
                                      int lane = -1) override {
    return Submit(/*is_read=*/false, lba, sectors, data, lane);
  }

  uint32_t tenant_handle() const override { return 0; }
  int num_lanes() const override { return options_.num_threads; }
  uint64_t capacity_sectors() const override {
    return device_.profile().capacity_sectors;
  }
  uint32_t sector_bytes() const override {
    return device_.profile().sector_bytes;
  }
  uint32_t sectors_per_page() const override {
    return device_.profile().SectorsPerPage();
  }

 private:
  sim::Future<client::IoResult> Submit(bool is_read, uint64_t lba,
                                       uint32_t sectors, uint8_t* data,
                                       int lane);
  sim::Task DoIo(int thread, bool is_read, uint64_t lba, uint32_t sectors,
                 uint8_t* data, sim::Promise<client::IoResult> promise);

  sim::Simulator& sim_;
  flash::FlashDevice& device_;
  Options options_;
  std::vector<flash::QueuePair*> qps_;
  std::vector<sim::TimeNs> core_free_;
  int next_thread_ = 0;
};

}  // namespace reflex::baseline

#endif  // REFLEX_BASELINE_LOCAL_SPDK_H_
