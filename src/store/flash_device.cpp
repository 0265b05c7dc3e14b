#include "store/flash_device.hpp"

#include <utility>

namespace ape::store {

FlashDevice::FlashDevice(sim::Simulator& sim, FlashDeviceParams params)
    : params_(params), queue_(sim, params.channels) {}

sim::Duration FlashDevice::transfer_cost(std::size_t bytes, sim::Duration latency,
                                         double bandwidth) noexcept {
  if (bandwidth <= 0.0) return latency;
  const double transfer_us = static_cast<double>(bytes) / bandwidth * 1'000'000.0;
  return latency + sim::microseconds(static_cast<std::int64_t>(transfer_us));
}

sim::Duration FlashDevice::read_cost(std::size_t bytes) const noexcept {
  return transfer_cost(bytes, params_.read_latency, params_.read_bandwidth);
}

sim::Duration FlashDevice::write_cost(std::size_t bytes) const noexcept {
  return transfer_cost(bytes, params_.write_latency, params_.write_bandwidth);
}

void FlashDevice::read(std::size_t bytes, sim::ServiceQueue::Callback done) {
  ++reads_;
  bytes_read_ += bytes;
  queue_.submit(read_cost(bytes), std::move(done), APE_EVT("ap.flash.read"));
}

void FlashDevice::write(std::size_t bytes, sim::ServiceQueue::Callback done) {
  ++writes_;
  queue_.submit(write_cost(bytes), std::move(done), APE_EVT("ap.flash.write"));
}

void FlashDevice::read_async(std::size_t bytes) {
  ++reads_;
  bytes_read_ += bytes;
  queue_.submit(read_cost(bytes), APE_EVT("ap.flash.read"));
}

void FlashDevice::write_async(std::size_t bytes) {
  ++writes_;
  queue_.submit(write_cost(bytes), APE_EVT("ap.flash.write"));
}

}  // namespace ape::store
