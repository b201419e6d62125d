//! Stream interning over the workload library: a trace stores each
//! distinct instruction stream once, the codec keeps that sharing, an edit
//! to one warp never reaches the warps that share its stream, and the held
//! bytes of the whole library stay bounded.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashSet;
use std::sync::Arc;

use gpumech_isa::{InstKind, MemSpace};
use gpumech_trace::{io, workloads, KernelTrace, TraceError, WarpTrace};

/// The distinct `(pc, kind, deps)` sequences of `t`'s warps, counted the
/// slow way.
fn brute_force_streams(t: &KernelTrace) -> usize {
    let seqs: HashSet<Vec<(u32, InstKind, Vec<u32>)>> = t
        .warps
        .iter()
        .map(|w| w.insts().map(|i| (i.pc, i.kind, w.deps(&i).to_vec())).collect())
        .collect();
    seqs.len()
}

#[test]
fn each_distinct_stream_is_stored_once_and_decoding_keeps_the_sharing() {
    let mut shared_somewhere = false;
    for w in workloads::all() {
        let t = w.with_blocks(4).trace().unwrap();
        let n = t.distinct_streams();
        assert_eq!(n, brute_force_streams(&t), "{}", t.name);
        shared_somewhere |= n < t.warps.len();
        let back = io::decode(&io::encode(&t)).unwrap();
        assert_eq!(back, t, "{}", t.name);
        assert_eq!(back.distinct_streams(), n, "{}: decoded stream count", t.name);
    }
    assert!(shared_somewhere, "no warp shares a stream: the test shows nothing");
}

/// Every warp holds its own copy of its stream, laid out as in `t`: the
/// layout before streams were shared.
fn unshared(t: &KernelTrace) -> KernelTrace {
    let mut own = t.clone();
    for w in &mut own.warps {
        // Any edit that reaches the stream copies it away from the others.
        w.set_kind(0, w.inst(0).kind);
    }
    assert_eq!(own.distinct_streams(), own.warps.len());
    own
}

/// An edit of one warp.
type Edit = Box<dyn Fn(&mut WarpTrace)>;

/// The first row of `w` that satisfies `pick`.
fn row(w: &WarpTrace, pick: impl Fn(InstKind) -> bool) -> usize {
    w.insts().position(|i| pick(i.kind)).expect("the kernel has such a row")
}

#[test]
fn an_edit_to_one_warp_reaches_no_other_warp_of_its_stream() {
    const LOAD: InstKind = InstKind::Load(MemSpace::Global);
    let t = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2).trace().unwrap();
    assert_eq!(t.distinct_streams(), 1, "every warp shares one stream");
    let edited_warp = 3;
    let w = &t.warps[edited_warp];
    let (alu, load) = (row(w, |k| !k.is_mem()), row(w, InstKind::is_global_load));
    let (load_mask, lanes) = (w.inst(load).active_mask, w.addrs(&w.inst(load)).to_vec());
    let edits: Vec<(&str, bool, Edit)> = vec![
        ("row kind, same class", true, Box::new(move |w| w.set_kind(alu, InstKind::FpAdd))),
        ("row kind, load to alu", false, Box::new(move |w| w.set_kind(load, InstKind::IntAlu))),
        ("row kind, alu to load", false, Box::new(move |w| w.set_kind(alu, LOAD))),
        ("deps, none", true, Box::new(move |w| w.set_deps(load, &[]).unwrap())),
        ("deps, self", false, Box::new(move |w| w.set_deps(load, &[load as u32]).unwrap())),
        ("mask, partial", true, Box::new(move |w| w.set_mask(alu, 0xFFFF))),
        ("mask, affine row", true, Box::new(move |w| w.set_mask(load, load_mask ^ 1))),
        ("mask, empty", false, Box::new(move |w| w.set_mask(alu, 0))),
        ("addrs, moved", true, {
            let moved: Vec<u64> = lanes.iter().map(|a| a + 64).collect();
            Box::new(move |w| w.set_addrs(load, &moved).unwrap())
        }),
        ("addrs, one short", false, {
            let short = lanes[1..].to_vec();
            Box::new(move |w| w.set_addrs(load, &short).unwrap())
        }),
        ("addrs, on an alu row", false, Box::new(move |w| w.set_addrs(alu, &[0x40]).unwrap())),
    ];
    let own = unshared(&t);
    for (what, valid, edit) in &edits {
        let mut shared = t.clone();
        edit(&mut shared.warps[edited_warp]);
        for (j, (after, before)) in shared.warps.iter().zip(&t.warps).enumerate() {
            if j != edited_warp {
                assert_eq!(after, before, "{what}: warp {j} changed");
                assert!(Arc::ptr_eq(after.stream(), before.stream()), "{what}: warp {j}");
            }
        }
        assert_ne!(shared.warps[edited_warp], t.warps[edited_warp], "{what}: no edit");

        // The same edit on a trace whose warps each own their stream.
        let mut alone = own.clone();
        edit(&mut alone.warps[edited_warp]);
        assert_eq!(shared, alone, "{what}");
        let verdict = shared.validate();
        assert_eq!(verdict, alone.validate(), "{what}");
        assert_eq!(verdict.is_ok(), *valid, "{what}: {verdict:?}");
        if let Err(TraceError::CorruptTrace { warp, .. }) = verdict {
            assert_eq!(warp, Some(edited_warp), "{what}");
        }
    }
}

/// The library at the benchmark's 64 blocks: 20 480 warps hold 232
/// distinct streams, and the traces hold at most 55 MB — 109 MB when every
/// warp held its own copy of its stream.
#[test]
fn the_library_at_64_blocks_holds_232_streams_in_at_most_55_mb() {
    let (mut warps, mut streams, mut bytes) = (0, 0, 0);
    for w in workloads::all() {
        let t = w.with_blocks(64).trace().unwrap();
        let mut seen = HashSet::new();
        for warp in &t.warps {
            if seen.insert(Arc::as_ptr(warp.stream())) {
                bytes += warp.stream().held_bytes();
            }
            bytes += warp.held_bytes();
        }
        warps += t.warps.len();
        streams += seen.len();
    }
    assert_eq!((warps, streams), (20_480, 232));
    assert!(bytes <= 55_000_000, "the library's traces hold {bytes} bytes");
}
