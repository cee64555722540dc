package service

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// metricsGoldenFields is the documented GET /metrics schema (see
// EXPERIMENTS.md "Serving"): adding a counter means extending this list
// AND the docs; renaming or dropping one breaks dashboards and fails
// here first.
var metricsGoldenFields = []string{
	"jobsSubmitted",
	"jobsCompleted",
	"jobsFailed",
	"jobsCanceled",
	"jobsRejected",
	"queueDepth",
	"jobsRunning",
	"shedExpired",
	"shedOverload",
	"admissionLimit",
	"cacheHits",
	"cacheMisses",
	"cacheEvictions",
	"cacheSize",
	"runsExecuted",
	"simCyclesExecuted",
	"workerPanics",
	"breakerTripped",
	"breakerRejected",
	"journalRecords",
	"journalRotations",
	"journalTornRecords",
	"journalQuarantinedRecords",
	"recoveredReenqueued",
	"recoveredFromCache",
	"recoveredTerminal",
	"snapshotWrites",
	"snapshotQuarantines",
	"degraded",
	"role",
	"replicaLagRecords",
	"replFramesSent",
	"replFramesApplied",
	"replCorruptFrames",
	"replDigestMismatches",
	"replSnapshotsServed",
	"auditPasses",
	"auditEntriesScanned",
	"auditReexecutions",
	"auditMismatches",
	"auditRepairs",
	"scrubCorruptions",
	"promotions",
	"promotedFromCache",
	"promotedReenqueued",
	"promotedShed",
	"latencyMsByWorkload",
	"stageLatencyMs",
	"traceSpans",
	"traceSpansDropped",
	"historyPoints",
}

// stageLatencyGoldenKeys is the fixed per-stage histogram key set inside
// "stageLatencyMs" — the server's pipeline stage vocabulary, which the
// tracer shares as span names.
var stageLatencyGoldenKeys = []string{
	"admission", "queue", "cache", "singleflight",
	"journal", "execute", "respond", "snapshot",
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestMetricsSchemaGolden pins the /metrics document's field set two
// ways: the struct's JSON tags must match the golden list, and so must
// the keys of a live response (catching any tag that fails to render,
// e.g. an accidental omitempty on a counter).
func TestMetricsSchemaGolden(t *testing.T) {
	var structFields []string
	rt := reflect.TypeOf(MetricsSnapshot{})
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if name == "" || name == "-" {
			t.Fatalf("MetricsSnapshot field %s has no JSON name", rt.Field(i).Name)
		}
		structFields = append(structFields, name)
	}
	if got, want := sortedCopy(structFields), sortedCopy(metricsGoldenFields); !reflect.DeepEqual(got, want) {
		t.Fatalf("MetricsSnapshot JSON tags drifted from the documented schema:\n got %v\nwant %v", got, want)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics is not a JSON object: %v\n%s", err, body)
	}
	var rendered []string
	for k := range doc {
		rendered = append(rendered, k)
	}
	if got, want := sortedCopy(rendered), sortedCopy(metricsGoldenFields); !reflect.DeepEqual(got, want) {
		t.Fatalf("rendered /metrics keys drifted from the documented schema:\n got %v\nwant %v", got, want)
	}

	// The per-stage histogram map must render the full fixed stage set
	// even on an idle daemon (untouched stages report count 0).
	var stages map[string]json.RawMessage
	if err := json.Unmarshal(doc["stageLatencyMs"], &stages); err != nil {
		t.Fatalf("stageLatencyMs is not a JSON object: %v", err)
	}
	var stageKeys []string
	for k := range stages {
		stageKeys = append(stageKeys, k)
	}
	if got, want := sortedCopy(stageKeys), sortedCopy(stageLatencyGoldenKeys); !reflect.DeepEqual(got, want) {
		t.Fatalf("stageLatencyMs keys drifted from the stage vocabulary:\n got %v\nwant %v", got, want)
	}
}
