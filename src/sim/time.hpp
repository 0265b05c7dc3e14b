// Virtual time for the discrete-event simulator.
//
// All latencies in the system are expressed in these units; nothing in the
// libraries reads the wall clock, so every experiment is deterministic and
// replayable from a seed.
#pragma once

#include <chrono>
#include <cstdint>

namespace ape::sim {

// Microsecond resolution covers everything from sub-ms DNS processing to
// hour-long experiment runs without overflow (int64 micros ≈ 292k years).
using Duration = std::chrono::duration<std::int64_t, std::micro>;

struct Time {
  Duration since_epoch{0};

  constexpr Time() = default;
  constexpr explicit Time(Duration d) : since_epoch(d) {}

  [[nodiscard]] constexpr double millis() const noexcept {
    return static_cast<double>(since_epoch.count()) / 1000.0;
  }
  [[nodiscard]] constexpr double seconds() const noexcept {
    return static_cast<double>(since_epoch.count()) / 1'000'000.0;
  }

  friend constexpr Time operator+(Time t, Duration d) noexcept { return Time{t.since_epoch + d}; }
  friend constexpr Time operator-(Time t, Duration d) noexcept { return Time{t.since_epoch - d}; }
  friend constexpr Duration operator-(Time a, Time b) noexcept { return a.since_epoch - b.since_epoch; }
  friend constexpr auto operator<=>(Time a, Time b) noexcept = default;
};

inline constexpr Duration microseconds(std::int64_t n) noexcept { return Duration{n}; }
inline constexpr Duration milliseconds(double n) noexcept {
  return Duration{static_cast<std::int64_t>(n * 1000.0)};
}
inline constexpr Duration seconds(double n) noexcept {
  return Duration{static_cast<std::int64_t>(n * 1'000'000.0)};
}
inline constexpr Duration minutes(double n) noexcept { return seconds(n * 60.0); }

[[nodiscard]] inline double to_millis(Duration d) noexcept {
  return static_cast<double>(d.count()) / 1000.0;
}
[[nodiscard]] inline double to_seconds(Duration d) noexcept {
  return static_cast<double>(d.count()) / 1'000'000.0;
}

}  // namespace ape::sim
