//! The first scratch spill in a process removes the scratch files that
//! dead processes left behind, and only those. The sweep runs once per
//! process, so this binary holds exactly one test: no other spill can
//! run first.

use std::fs;
use std::process::Command;

use waymem_isa::{FetchKind, RecordedTrace, TraceEvent};
use waymem_trace::{spill_scratch, stream, StoreIo, StreamError, WorkloadId};

// Liveness is read from `/proc`; elsewhere only old files are swept.
#[cfg(target_os = "linux")]
#[test]
fn first_spill_sweeps_dead_owners_scratch_files_only() {
    let dir = std::env::temp_dir();
    // A child that has exited and been reaped: its pid is dead.
    let mut child = Command::new("true").spawn().expect("spawns `true`");
    let dead_pid = child.id();
    child.wait().expect("child exits");
    let dead = dir.join(format!("waymem-scratch-{dead_pid}-0-sweep-test.wmtr"));
    let live = dir.join(format!("waymem-scratch-{}-0-sweep-test.wmtr", std::process::id()));
    fs::write(&dead, b"left by a crashed process").expect("plants dead");
    fs::write(&live, b"held by this process").expect("plants live");

    let trace = RecordedTrace {
        fetch_events: vec![TraceEvent::Fetch { pc: 0, kind: FetchKind::Sequential }],
        data_events: vec![],
        cycles: 1,
    };
    let spilled = spill_scratch(WorkloadId::External { hash: 1 }, &StoreIo::passthrough(), |path| {
        stream::write_encoded(&trace, 0, path).map(drop).map_err(StreamError::from)
    })
    .expect("spills");

    let swept = !dead.exists();
    let kept = live.exists();
    let _ = fs::remove_file(&dead);
    let _ = fs::remove_file(&live);
    assert!(swept, "a dead process's scratch file must be swept");
    assert!(kept, "a live process's scratch file must stay");
    assert_eq!(spilled.decode().expect("decodes"), trace);
}
