#include "graph/graph_store.hpp"

#include <string>

#include "common/env.hpp"
#include "common/error.hpp"

namespace focus::graph {

GraphStoreConfig GraphStoreConfig::from_env(const EnvSnapshot& env) {
  GraphStoreConfig config;
  if (!env.graph_backend.has_value() || env.graph_backend->empty()) {
    return config;
  }
  const std::string& name = *env.graph_backend;
  if (name == "csr-spill" || name == "csr_spill") {
    FOCUS_THROW("FOCUS_GRAPH_BACKEND: the '" + name +
                "' backend was removed; unset FOCUS_GRAPH_BACKEND or set it "
                "to 'memory'");
  }
  if (name != "memory") {
    FOCUS_THROW("FOCUS_GRAPH_BACKEND: unknown backend '" + name +
                "' (expected 'memory')");
  }
  return config;
}

}  // namespace focus::graph
