// Fixture: heap allocations, string streams, by-name metric lookups and
// cache-key renders inside a file annotated as hot-path must fire;
// placement new, allowlisted lines, and handle-based metric use must not.
// (A second, unannotated fixture is not needed: every other fixture file
// lacks the marker, so the check staying silent there is already covered.)
// ape-lint: hot-path
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

namespace fixture {

struct Counter {
  void add(std::uint64_t n = 1) { value += n; }
  std::uint64_t value = 0;
};

struct HotRegistry {
  Counter& counter(const std::string&) { return slot; }
  Counter& gauge(const std::string&) { return slot; }
  Counter& histogram(const std::string&) { return slot; }
  Counter slot;
};

struct CounterHandle {
  Counter* resolved = nullptr;
  void add() { resolved->add(); }
};

using UrlHash = std::uint64_t;
std::string hash_to_string(UrlHash h);

inline void per_event(HotRegistry& registry, CounterHandle& handle) {
  int* raw = new int(7);  // expect-lint: hot-alloc
  auto owned = std::make_unique<int>(9);  // expect-lint: hot-alloc
  auto shared = std::make_shared<int>(11);  // expect-lint: hot-alloc
  registry.counter("engine.events").add();  // expect-lint: hot-alloc
  registry.gauge("engine.depth").add();  // expect-lint: hot-alloc
  registry.histogram("engine.latency_ms").add();  // expect-lint: hot-alloc

  // String streams allocate a buffer and take the locale per construction.
  std::istringstream in("1 2");  // expect-lint: hot-alloc
  std::ostringstream out;  // expect-lint: hot-alloc
  std::stringstream both;  // expect-lint: hot-alloc
  std::ostringstream report;  // ape-lint: allow(hot-alloc)

  // A rendered key is a 16-character heap string: key by the hash itself.
  const std::string key = hash_to_string(42);  // expect-lint: hot-alloc
  const std::string qualified = fixture::hash_to_string(7);  // expect-lint: hot-alloc
  const std::string span_key = hash_to_string(9);  // ape-lint: allow(hot-alloc)

  // Pre-resolved handles are the sanctioned pattern: no literal, no walk.
  handle.add();

  // Placement new constructs into existing storage — the arena idiom.
  alignas(int) unsigned char buf[sizeof(int)];
  int* placed = ::new (static_cast<void*>(buf)) int(3);

  // Cold-path escape hatch.
  int* excused = new int(13);  // ape-lint: allow(hot-alloc)

  *raw += *owned + *shared + *placed + *excused +
          static_cast<int>(key.size() + qualified.size() + span_key.size());
  delete raw;
  delete excused;
}

}  // namespace fixture
