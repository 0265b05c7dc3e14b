// Simulated flash device — the cost model behind the flash tier.
//
// Real AP hardware ships NOR/NAND flash (or an SD card) that is orders of
// magnitude slower than DRAM but still far faster than a WAN round trip:
// a flash hit costs ~a millisecond of device time versus ~30 ms to the
// edge.  Every byte moved to or from the flash tier goes through this
// model so tiered runs charge that cost in sim-time.
//
// Built on sim::ServiceQueue: the device is a single-resource (or
// multi-channel) queue, so concurrent reads/writes serialize and flash
// latency rises under load exactly like the AP CPU does.  An op costs a
// fixed per-op setup latency plus bytes / bandwidth.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/service_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ape::store {

struct FlashDeviceParams {
  // Per-op setup cost (command issue, page lookup).  Reads are cheaper
  // than writes on every flash technology.
  sim::Duration read_latency{sim::microseconds(150)};
  sim::Duration write_latency{sim::microseconds(400)};
  // Sustained transfer rates in bytes/second (SD-card class defaults).
  double read_bandwidth = 80e6;
  double write_bandwidth = 25e6;
  // Independent flash channels; >1 models an eMMC-style parallel part.
  std::size_t channels = 1;
};

class FlashDevice {
 public:
  FlashDevice(sim::Simulator& sim, FlashDeviceParams params);

  // Async transfer of `bytes`; `done` fires after queueing + device time.
  void read(std::size_t bytes, sim::ServiceQueue::Callback done);
  void write(std::size_t bytes, sim::ServiceQueue::Callback done);

  // Fire-and-forget transfers (journal appends, compaction rewrites,
  // replay scans): they occupy the device — later reads queue behind
  // them — but nobody waits on them.
  void read_async(std::size_t bytes);
  void write_async(std::size_t bytes);

  // Cost previews (used by tier-aware PACM to discount l_d for objects a
  // RAM eviction would merely demote).
  [[nodiscard]] sim::Duration read_cost(std::size_t bytes) const noexcept;
  [[nodiscard]] sim::Duration write_cost(std::size_t bytes) const noexcept;

  [[nodiscard]] std::size_t reads() const noexcept { return reads_; }
  [[nodiscard]] std::size_t writes() const noexcept { return writes_; }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept { return bytes_read_; }
  [[nodiscard]] sim::Duration busy_time() const noexcept { return queue_.busy_time(); }
  [[nodiscard]] std::size_t queued() const noexcept { return queue_.queued(); }

 private:
  [[nodiscard]] static sim::Duration transfer_cost(std::size_t bytes, sim::Duration latency,
                                                   double bandwidth) noexcept;

  FlashDeviceParams params_;
  sim::ServiceQueue queue_;
  std::size_t reads_ = 0;
  std::size_t writes_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace ape::store
