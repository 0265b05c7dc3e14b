// APE-CACHE calibration, fixed to the paper's reference implementation
// values (Secs. IV-B, IV-C, V-A), and the per-run knobs.
//
// The paper calibrates APE-CACHE once: one alpha, one block threshold, one
// dual-core MT7621A AP.  Those values are the named constants below.
// ApeConfig holds only what some bench or example actually varies (cache
// size, the PACM ablations, the extensions); a constant moves into it when
// a run first needs a second value.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace ape::core {

// --- AP data cache -----------------------------------------------------
inline constexpr std::size_t kBlockThresholdBytes = 500 * 1000;  // 500 kB (Sec. IV-B1)

// --- PACM ---------------------------------------------------------------
// EWMA weight on the newest window (Sec. IV-C).
inline constexpr double kAlpha = 0.7;
inline constexpr sim::Duration kFrequencyWindow = sim::seconds(60.0);  // R(a) update period
// DP budget: above items*capacity_kb > budget, fall back to greedy.
inline constexpr std::size_t kKnapsackDpBudget = 40'000'000;

// --- AP CPU -------------------------------------------------------------
inline constexpr std::size_t kCpuCores = 2;  // MT7621A is dual-core

// --- DNS-Cache ----------------------------------------------------------
// Extra AP CPU time for the piggybacked cache lookup relative to a plain
// DNS query (measured at ~0.02 ms in the paper, Fig. 11b).
inline constexpr sim::Duration kCacheLookupExtra = sim::microseconds(20);
inline constexpr sim::Duration kDnsServiceTime = sim::microseconds(400);  // per DNS query
inline constexpr std::uint32_t kDnsAnswerTtlCap = 30;                     // seconds
// Client-side cost of building a DNS-Cache query (hashing the URL,
// assembling the Additional RR in the managed runtime) — part of the
// measured lookup latency, and the reason the paper's lookup (~7.5 ms)
// slightly exceeds one WiFi RTT.
inline constexpr sim::Duration kDnsCacheBuildCost = sim::microseconds(2800);

// --- AP HTTP path ---------------------------------------------------------
inline constexpr sim::Duration kHttpServiceBase = sim::microseconds(500);
inline constexpr sim::Duration kHttpServicePerKb = sim::microseconds(12);

// --- AP memory model (Fig. 2 / Fig. 14) ----------------------------------
// Baseline footprint of the stock firmware + dnsmasq.
inline constexpr std::size_t kBaseMemoryBytes = 104 * 1024 * 1024;
// APE-CACHE runtime overhead excluding the object cache itself.
inline constexpr std::size_t kRuntimeMemoryBytes = 6 * 1024 * 1024;
inline constexpr std::size_t kPerIndexEntryBytes = 160;  // url_index bookkeeping
inline constexpr std::size_t kPerConnectionBytes = 16 * 1024;
inline constexpr std::size_t kPerFlowBytes = 512;        // NAT/conntrack style state

struct ApeConfig {
  // --- AP data cache -----------------------------------------------------
  std::size_t cache_capacity_bytes = 5 * 1000 * 1000;  // 5 MB (Sec. V-B)

  // --- PACM ---------------------------------------------------------------
  double fairness_theta = 0.4;  // Gini bound on storage efficiency

  // --- PACM ablations (see DESIGN.md; exercised by bench_ablation_pacm) ---
  bool pacm_use_priority = true;   // false: p_d forced to 1 in U_d
  bool pacm_use_fairness = true;   // false: drop the F(A) <= theta constraint
  bool pacm_force_greedy = false;  // true: always use the density greedy

  // --- extensions beyond the paper (default off) ---------------------------
  // Conditional-GET revalidation: a delegation for an object whose cached
  // copy merely *expired* sends If-None-Match; a 304 refreshes the entry
  // without moving the body across the WAN.
  bool enable_revalidation = false;

  // Flash tier (src/store): 0 disables it, keeping the AP a pure RAM cache
  // and every existing run byte-identical.  When enabled, RAM evictions
  // demote to a journaled flash log and misses probe flash before the edge.
  // Device and segment parameters are store::FlashDeviceParams /
  // store::FlashTierParams defaults.
  std::size_t flash_capacity_bytes = 0;

  // Periodic RAM expiry sweep: 0 disables (expired entries then die lazily
  // on access or insert pressure, the pre-tiering behaviour).
  sim::Duration sweep_interval{0};
};

}  // namespace ape::core
