// The two programming models compared in the paper (Sec. IV-A / V-F).
//
// Declarative ("annotation") model: developers attach Cacheable metadata to
// the fields that hold remote data; the runtime processes the metadata and
// intercepts matching HTTP requests — zero changes to app logic.  C++ has
// no runtime annotation reflection, so AnnotatedApp plays the role of the
// annotation processor: each cacheable_field() call corresponds to one
// @Cacheable line in the Java reference implementation.
//
// API-based alternative: every call site is rewritten to
// invoke_http_request_async(url, priority, TTL).  Only its programming cost
// is modelled here — measure_effort counts it for Table VII.
#pragma once

#include <string>
#include <vector>

#include "common/shard.hpp"
#include "core/client_runtime.hpp"

namespace ape::core {

class AnnotatedApp {
  APE_SHARD_CONTEXT(client);

 public:
  AnnotatedApp(std::string name, AppId id) : name_(std::move(name)), id_(id) {}

  // One @Cacheable(id=..., Priority=..., TTL=...) annotation.
  AnnotatedApp& cacheable_field(std::string field_name, std::string id_url, int priority,
                                std::uint32_t ttl_minutes);

  // "Annotation processing": registers every cacheable object with the
  // client library.  App logic is untouched — requests keep using plain
  // URLs and are intercepted by base-URL match.
  void attach(ClientRuntime& runtime) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] AppId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t annotation_count() const noexcept { return fields_.size(); }

  struct Field {
    std::string field_name;
    CacheableSpec spec;
  };
  [[nodiscard]] const std::vector<Field>& fields() const noexcept { return fields_; }

 private:
  APE_SHARD_LOCAL(client) std::string name_;
  APE_SHARD_LOCAL(client) AppId id_;
  APE_SHARD_LOCAL(client) std::vector<Field> fields_;
};

// Table VII accounting for one app under each model.
struct ProgrammingEffort {
  std::string app;
  std::size_t annotation_locs = 0;   // declarative: one line per annotation
  std::size_t api_locs = 0;          // API model: rewritten request sites
  bool rewrites_logic = false;       // declarative: no; API: yes
};

[[nodiscard]] ProgrammingEffort measure_effort(const AnnotatedApp& app,
                                               std::size_t request_sites);

}  // namespace ape::core
