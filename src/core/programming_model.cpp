#include "core/programming_model.hpp"

namespace ape::core {

AnnotatedApp& AnnotatedApp::cacheable_field(std::string field_name, std::string id_url,
                                            int priority, std::uint32_t ttl_minutes) {
  CacheableSpec spec;
  spec.id = std::move(id_url);
  spec.priority = priority;
  spec.ttl_minutes = ttl_minutes;
  spec.app = id_;
  fields_.push_back(Field{std::move(field_name), std::move(spec)});
  return *this;
}

void AnnotatedApp::attach(ClientRuntime& runtime) const {
  for (const auto& field : fields_) runtime.register_cacheable(field.spec);
}

ProgrammingEffort measure_effort(const AnnotatedApp& app, std::size_t request_sites) {
  ProgrammingEffort effort;
  effort.app = app.name();
  // Declarative: one annotation line per cacheable field; logic untouched.
  effort.annotation_locs = app.annotation_count();
  // API-based: every request site touching a cacheable object is rewritten,
  // and each site needs the call + error plumbing (the paper counts ~3
  // lines per rewritten request, e.g. 30 LoC for MovieTrailer's 10 sites).
  effort.api_locs = request_sites * 3;
  effort.rewrites_logic = true;
  return effort;
}

}  // namespace ape::core
