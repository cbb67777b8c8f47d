package colsort

// TestWireEncodingGolden pins the JSON wire representation of the types
// the colsort-server exposes: Progress (the SSE push payload), MergeStats,
// FaultStats, EngineStats (the /metrics gauge source) and ResultSummary
// (the job API's result digest). The encodings are deliberate — snake_case
// tags, omitempty only where absence is meaningful — rather than Go's
// default-cased field names, and any drift is a wire-protocol change that
// must be made consciously (update the golden AND DESIGN.md §11).

import (
	"encoding/json"
	"testing"

	"colsort/internal/sim"
)

func TestWireEncodingGolden(t *testing.T) {
	fullCounters := sim.Counters{
		DiskReadBytes: 1, DiskWriteBytes: 2, DiskReadOps: 3, DiskWriteOps: 4,
		NetBytes: 5, NetMsgs: 6, LocalBytes: 7, LocalMsgs: 8,
		CompareUnits: 9, MovedBytes: 10, Rounds: 11,
	}
	const countersJSON = `{"disk_read_bytes":1,"disk_write_bytes":2,"disk_read_ops":3,"disk_write_ops":4,` +
		`"net_bytes":5,"net_msgs":6,"local_bytes":7,"local_msgs":8,"compare_units":9,"moved_bytes":10,` +
		`"rounds":11}`

	cases := []struct {
		name string
		v    any
		want string
	}{
		{
			name: "progress pass event",
			v:    Progress{Pass: 2, Passes: 3, Round: 1, Rounds: 4},
			want: `{"pass":2,"passes":3,"round":1,"rounds":4}`,
		},
		{
			name: "progress batch event",
			v:    Progress{Pass: 1, Passes: 3, Round: 4, Rounds: 4, Batch: 2, Batches: 5},
			want: `{"pass":1,"passes":3,"round":4,"rounds":4,"batch":2,"batches":5}`,
		},
		{
			name: "progress merge event",
			v:    Progress{MergedRecords: 512, TotalRecords: 2048},
			want: `{"pass":0,"passes":0,"round":0,"rounds":0,"merged_records":512,"total_records":2048}`,
		},
		{
			name: "progress formation event",
			v:    Progress{Batch: 3, Batches: 5, FormedRecords: 700, TotalRecords: 2048},
			want: `{"pass":0,"passes":0,"round":0,"rounds":0,"batch":3,"batches":5,"formed_records":700,"total_records":2048}`,
		},
		{
			name: "merge stats",
			v:    MergeStats{Runs: 8, Levels: 2, FanIn: 4, RunRecords: 4096, BytesRead: 100, BytesWritten: 200},
			want: `{"runs":8,"levels":2,"fan_in":4,"run_records":4096,"bytes_read":100,"bytes_written":200}`,
		},
		{
			name: "merge stats replacement selection",
			v: MergeStats{
				Runs: 5, Levels: 1, FanIn: 16, RunRecords: 4096, BytesRead: 100, BytesWritten: 200,
				Formation: "replacement-select", DownRuns: 2, MinRunRecords: 512, MaxRunRecords: 9000,
			},
			want: `{"runs":5,"levels":1,"fan_in":16,"run_records":4096,"bytes_read":100,"bytes_written":200,` +
				`"formation":"replacement-select","down_runs":2,"min_run_records":512,"max_run_records":9000}`,
		},
		{
			name: "fault stats",
			v:    FaultStats{CorruptChunks: 3, ChunkRereads: 4, BatchRedos: 5},
			want: `{"corrupt_chunks":3,"chunk_rereads":4,"batch_redos":5}`,
		},
		{
			name: "sim counters",
			v:    fullCounters,
			want: countersJSON,
		},
		{
			name: "engine stats",
			v: EngineStats{
				ActiveJobs: 1, QueuedJobs: 2, CompletedJobs: 3, FailedJobs: 4,
				LeasedBytes: 5, PeakLeasedBytes: 6, TotalMemory: 7,
				PoolFreeBuffers: 8, PoolFreeBytes: 9,
				Counters: fullCounters,
				Faults:   FaultStats{CorruptChunks: 17},
			},
			want: `{"active_jobs":1,"queued_jobs":2,"completed_jobs":3,"failed_jobs":4,` +
				`"leased_bytes":5,"peak_leased_bytes":6,"total_memory":7,"pool_free_buffers":8,"pool_free_bytes":9,` +
				`"counters":` + countersJSON + `,` +
				`"faults":{"corrupt_chunks":17,"chunk_rereads":0,"batch_redos":0}}`,
		},
		{
			name: "engine stats with run formation",
			v: EngineStats{
				CompletedJobs: 1,
				RunsFormed:    6, DownRunsFormed: 2, RunRecordsFormed: 40000, MergeLevelsRun: 1,
			},
			want: `{"active_jobs":0,"queued_jobs":0,"completed_jobs":1,"failed_jobs":0,` +
				`"leased_bytes":0,"peak_leased_bytes":0,"total_memory":0,"pool_free_buffers":0,"pool_free_bytes":0,` +
				`"counters":{"disk_read_bytes":0,"disk_write_bytes":0,"disk_read_ops":0,"disk_write_ops":0,` +
				`"net_bytes":0,"net_msgs":0,"local_bytes":0,"local_msgs":0,"compare_units":0,"moved_bytes":0,` +
				`"rounds":0},` +
				`"faults":{"corrupt_chunks":0,"chunk_rereads":0,"batch_redos":0},` +
				`"runs_formed":6,"down_runs_formed":2,"run_records_formed":40000,"merge_levels_run":1}`,
		},
		{
			name: "result summary single run",
			v: ResultSummary{
				JobID: 7, Records: 1000, Plan: "threaded r=256 s=4",
				Counters: sim.Counters{DiskReadBytes: 1},
			},
			want: `{"job_id":7,"records":1000,"plan":"threaded r=256 s=4",` +
				`"faults":{"corrupt_chunks":0,"chunk_rereads":0,"batch_redos":0},` +
				`"counters":{"disk_read_bytes":1,"disk_write_bytes":0,"disk_read_ops":0,"disk_write_ops":0,` +
				`"net_bytes":0,"net_msgs":0,"local_bytes":0,"local_msgs":0,"compare_units":0,"moved_bytes":0,` +
				`"rounds":0}}`,
		},
		{
			name: "result summary hierarchical",
			v: ResultSummary{
				JobID: 8, Records: 3000, Plan: "threaded r=256 s=4",
				Merge: &MergeStats{Runs: 3, Levels: 1, FanIn: 16, RunRecords: 1024},
			},
			want: `{"job_id":8,"records":3000,"plan":"threaded r=256 s=4",` +
				`"merge":{"runs":3,"levels":1,"fan_in":16,"run_records":1024,"bytes_read":0,"bytes_written":0},` +
				`"faults":{"corrupt_chunks":0,"chunk_rereads":0,"batch_redos":0},` +
				`"counters":{"disk_read_bytes":0,"disk_write_bytes":0,"disk_read_ops":0,"disk_write_ops":0,` +
				`"net_bytes":0,"net_msgs":0,"local_bytes":0,"local_msgs":0,"compare_units":0,"moved_bytes":0,` +
				`"rounds":0}}`,
		},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: wire encoding drifted\n got: %s\nwant: %s", tc.name, got, tc.want)
		}
	}

	// Round trip: the server decodes job options and clients decode
	// summaries; the tagged names must parse back into the same values.
	var rt ResultSummary
	orig := ResultSummary{JobID: 9, Records: 42, Plan: "p", Faults: FaultStats{BatchRedos: 2}}
	b, _ := json.Marshal(orig)
	if err := json.Unmarshal(b, &rt); err != nil {
		t.Fatal(err)
	}
	if rt != orig {
		t.Errorf("ResultSummary round trip: got %+v want %+v", rt, orig)
	}
}
