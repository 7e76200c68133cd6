// Golden violation fixture for scripts/agora_lint.py (never compiled):
// a serving series registered in src/server/ whose name is absent from
// docs/METRICS.md is documentation drift, like an engine counter.
// lint-as: src/server/query_handler.cc
// expect-violation: metrics-doc-drift

namespace agora {

void RegisterGhostServingMetric(void* registry) {
  (void)registry;
  const char* name = "lint_fixture_ghost_server_seconds";
  (void)name;
}

}  // namespace agora
