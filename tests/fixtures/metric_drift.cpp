// Drift fixture for schema_audit's metric-namespace half (never compiled
// or linked — schema_audit scans it as text via --also). It registers a
// metric that has no row in README.md's "Metrics reference" table, so
// the audit must exit non-zero; the `schema_audit_detects_metric_drift`
// test is WILL_FAIL and turns that into a pass. If the metric scanner
// ever stops noticing this site, the suite fails.
#include "obs/metrics.hpp"

void metric_drift_fixture() {
  (void)optalloc::obs::counter("rogue.undocumented_counter");
}
