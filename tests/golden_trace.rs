//! Golden fingerprints of the interpreter's output.
//!
//! Every kernel's recorded trace is pinned at scales 1 and 4 by an
//! FNV-1a64 hash over its fetch stream, then its data stream, plus its
//! retired-instruction count. Any change to how `Cpu` fetches, decodes
//! or touches memory that alters a single event fails here, kernel by
//! kernel, before it can reach a power figure.

use waymem::isa::{FetchKind, RecordedTrace, TraceEvent};
use waymem::prelude::*;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn event(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::Fetch { pc, kind } => {
                self.bytes(&[0]);
                self.u32(pc);
                match kind {
                    FetchKind::Sequential => self.bytes(&[0]),
                    FetchKind::TakenBranch { base, disp } => {
                        self.bytes(&[1]);
                        self.u32(base);
                        self.u32(disp as u32);
                    }
                    FetchKind::LinkReturn { target } => {
                        self.bytes(&[2]);
                        self.u32(target);
                    }
                    FetchKind::Indirect { base, disp } => {
                        self.bytes(&[3]);
                        self.u32(base);
                        self.u32(disp as u32);
                    }
                }
            }
            TraceEvent::Load {
                base,
                disp,
                addr,
                size,
            } => self.access(1, base, disp, addr, size),
            TraceEvent::Store {
                base,
                disp,
                addr,
                size,
            } => self.access(2, base, disp, addr, size),
        }
    }

    fn access(&mut self, tag: u8, base: u32, disp: i32, addr: u32, size: u8) {
        self.bytes(&[tag]);
        self.u32(base);
        self.u32(disp as u32);
        self.u32(addr);
        self.bytes(&[size]);
    }
}

fn fingerprint(trace: &RecordedTrace) -> u64 {
    let mut h = Fnv::new();
    trace.fetch_events.iter().for_each(|e| h.event(e));
    trace.data_events.iter().for_each(|e| h.event(e));
    h.0
}

/// `(kernel, scale, fingerprint, cycles)`, taken from the interpreter
/// before it predecoded its text segment.
const GOLDEN: [(Benchmark, u32, u64, u64); 14] = [
    (Benchmark::Dct, 1, 0xf3e4_9ade_fbec_c90e, 224_556),
    (Benchmark::Fft, 1, 0xcd4b_516f_bdda_c96d, 208_624),
    (Benchmark::Dhrystone, 1, 0x5d19_0c98_edd2_bfdc, 82_639),
    (Benchmark::Whetstone, 1, 0xebcb_c39f_e02f_90b0, 77_103),
    (Benchmark::Compress, 1, 0x765a_d31b_5f72_3d95, 89_995),
    (Benchmark::JpegEnc, 1, 0xa06c_5993_b45f_2000, 175_339),
    (Benchmark::Mpeg2Enc, 1, 0xb6e8_bf9d_9a40_efe4, 346_615),
    (Benchmark::Dct, 4, 0x5470_448b_4b52_2a16, 898_188),
    (Benchmark::Fft, 4, 0xcabb_10cd_ae2c_db7d, 826_792),
    (Benchmark::Dhrystone, 4, 0x966d_4447_d2be_c7cc, 319_099),
    (Benchmark::Whetstone, 4, 0x93c7_eb27_94b6_7168, 308_403),
    (Benchmark::Compress, 4, 0x15c9_b4d8_3e22_aee3, 402_678),
    (Benchmark::JpegEnc, 4, 0xda38_d2bb_9b31_6eb8, 701_351),
    (Benchmark::Mpeg2Enc, 4, 0x3871_718b_5000_2350, 1_386_451),
];

#[test]
fn kernel_traces_match_their_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (bench, scale, want_hash, want_cycles) in GOLDEN {
        let cfg = SimConfig {
            scale,
            ..SimConfig::default()
        };
        let trace = waymem::sim::record_trace(bench, &cfg).expect("records");
        let got = (fingerprint(&trace), trace.cycles);
        if got != (want_hash, want_cycles) {
            mismatches.push(format!(
                "(Benchmark::{bench:?}, {scale}, {:#018x}, {}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "traces changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_table_covers_every_kernel_at_both_scales() {
    for scale in [1, 4] {
        for bench in Benchmark::ALL {
            assert!(
                GOLDEN.iter().any(|&(b, s, ..)| b == bench && s == scale),
                "{bench:?} at scale {scale} is not pinned"
            );
        }
    }
}
