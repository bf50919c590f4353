// Storage backend of the assembly-graph stages (FocusConfig::graph_store).
// Every rank holds its assembly graph in memory as a dist::AsmGraph; an
// operator who still selects the removed csr-spill backend gets a typed
// error instead of a silent fallback (DESIGN.md §8).
#pragma once

namespace focus {
struct EnvSnapshot;
}

namespace focus::graph {

enum class GraphStoreBackend {
  kInMemory,
};

struct GraphStoreConfig {
  GraphStoreBackend backend = GraphStoreBackend::kInMemory;

  /// Resolves FOCUS_GRAPH_BACKEND from `env`: unset, empty or 'memory'
  /// select kInMemory. The removed 'csr-spill' backend (alias 'csr_spill')
  /// and any unknown name throw focus::Error naming the value.
  static GraphStoreConfig from_env(const EnvSnapshot& env);
};

}  // namespace focus::graph
