//! Source gates: markers whose presence means a module regressed. Each
//! test lists every hit as `file:line: text`. The needles are spelled in
//! pieces so this file never matches itself.

use std::fs;
use std::path::{Path, PathBuf};

/// A file's path from the repository root, and its text.
macro_rules! source {
    ($path:literal) => {
        ($path, include_str!(concat!("../", $path)))
    };
}

/// The lines of `src` that `hit` flags, as `file:line: text`.
fn hits(file: &str, src: &str, hit: impl Fn(&str) -> bool) -> Vec<String> {
    src.lines()
        .zip(1..)
        .filter(|(line, _)| hit(line))
        .map(|(line, n)| format!("{file}:{n}: {}", line.trim()))
        .collect()
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The self-healing and zero-copy modules must stay fully wired into the
/// public API: a dead-code allowance in one of them means something
/// regressed to unreachable.
#[test]
fn gated_modules_allow_no_dead_code() {
    let needle = concat!("#[allow(", "dead_code)]");
    let sources = [
        source!("crates/storage/src/scrub.rs"),
        source!("crates/core/src/repair.rs"),
        source!("crates/buf/src/lib.rs"),
        source!("crates/buf/src/chunk.rs"),
        source!("crates/buf/src/pool.rs"),
        source!("crates/core/src/exchange.rs"),
        source!("crates/mpi/src/wire.rs"),
        source!("tests/repair.rs"),
        source!("tests/zerocopy.rs"),
    ];
    let found: Vec<String> = sources
        .iter()
        .flat_map(|(file, src)| hits(file, src, |line| line.contains(needle)))
        .collect();
    assert!(
        found.is_empty(),
        "dead code allowed in gated modules:\n{}",
        found.join("\n")
    );
}

/// Chunk geometry is carried as explicit per-chunk lengths end to end: a
/// hardcoded `i * chunk_size` (or `* 4096`) creeping back into a hot-path
/// module silently re-assumes fixed-stride chunking. The fixed chunker
/// itself (crates/hash) is the one legitimate home for stride math. Lines
/// are matched with their spaces squeezed out, so `i*chunk_size` and
/// `i *  chunk_size` hit alike.
#[test]
fn hot_path_modules_do_no_stride_math() {
    let needles = [
        concat!("*", "chunk_size"),
        concat!("*", "cfg.", "chunk_size"),
        concat!("*", "self.", "chunk_size"),
        concat!("*", "idx.", "chunk_size"),
        concat!("chunk_size", "*"),
        concat!("*", "4096"),
        concat!("4096", "*"),
    ];
    let sources = [
        source!("crates/core/src/dump.rs"),
        source!("crates/core/src/restore.rs"),
        source!("crates/core/src/exchange.rs"),
        source!("crates/core/src/local.rs"),
        source!("crates/core/src/offsets.rs"),
        source!("crates/core/src/plan.rs"),
        source!("crates/storage/src/manifest.rs"),
        source!("crates/storage/src/scrub.rs"),
    ];
    let found: Vec<String> = sources
        .iter()
        .flat_map(|(file, src)| {
            hits(file, src, |line| {
                let squeezed = line.replace(' ', "");
                needles.iter().any(|needle| squeezed.contains(needle))
            })
        })
        .collect();
    assert!(
        found.is_empty(),
        "fixed-stride chunk math outside the fixed chunker:\n{}",
        found.join("\n")
    );
}

/// The transitional `&[u8]` shims were removed after one release of
/// deprecation. A deprecation attribute anywhere in a crate's sources or
/// the integration tests means a shim crept back instead of the API being
/// designed right.
#[test]
fn no_deprecated_shims_in_the_workspace() {
    let needle = concat!("#[", "deprecated");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    files_under(&root.join("tests"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is listable") {
        files_under(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    assert!(
        files.iter().any(|f| f.ends_with("crates/core/src/heal.rs")),
        "the walk reaches the crate sources"
    );
    let found: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let file = path
                .strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string();
            hits(&file, &String::from_utf8_lossy(&bytes), |line| {
                line.contains(needle)
            })
        })
        .collect();
    assert!(
        found.is_empty(),
        "deprecated shim reintroduced; extend the API instead:\n{}",
        found.join("\n")
    );
}

/// Every file of the workspace's own code (`crates`, `src`, `tests`,
/// `examples`) as `(path from the repository root, text)`.
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files_under(&root.join(dir), &mut files);
    }
    assert!(
        files.iter().any(|f| f.ends_with("crates/mpi/src/comm.rs")),
        "the walk reaches the crate sources"
    );
    files
        .iter()
        .map(|path| {
            let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let file = path
                .strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string();
            (file, String::from_utf8_lossy(&bytes).into_owned())
        })
        .collect()
}

/// `WorldConfig`'s worker-count setter is ignored and survives only as
/// the benchmark's seam (`benchmark/src/sut.rs`). Its name anywhere in the
/// workspace besides its own definition means the seam-only method spread
/// instead of being deleted.
#[test]
fn the_ignored_worker_setter_has_no_workspace_caller() {
    let needle = concat!("with_", "workers");
    let definition = concat!("fn ", "with_", "workers(");
    let found: Vec<String> = workspace_sources()
        .iter()
        .flat_map(|(file, src)| {
            hits(file, src, |line| {
                line.contains(needle) && !line.contains(definition)
            })
        })
        .collect();
    assert!(
        found.is_empty(),
        "the ignored seam-only method is called in the workspace:\n{}",
        found.join("\n")
    );
}

/// The local index's parallel-hash constructor survives only as the
/// benchmark's seam (`benchmark/src/sut.rs`); the workspace builds every
/// index with `LocalIndex::new`. A call outside `local.rs`, where it is
/// defined and tested, means the seam-only constructor spread instead of
/// being deleted.
#[test]
fn the_parallel_hash_constructor_has_no_workspace_caller() {
    let needle = concat!("LocalIndex::", "build(");
    let found: Vec<String> = workspace_sources()
        .iter()
        .filter(|(file, _)| file != "crates/core/src/local.rs")
        .flat_map(|(file, src)| hits(file, src, |line| line.contains(needle)))
        .collect();
    assert!(
        found.is_empty(),
        "the seam-only constructor is called in the workspace:\n{}",
        found.join("\n")
    );
}

/// Recovery plans once: restore rounds, heal windows and the collective
/// scrub gather to one planning rank, which sends each rank its part.
/// An allgather in their non-test code means every rank again receives
/// the whole world's lists (bytes growing as ranks²) and plans alone.
#[test]
fn recovery_planning_never_allgathers() {
    let needle = concat!("try_", "allgather");
    let sources = [
        source!("crates/core/src/restore.rs"),
        source!("crates/core/src/heal.rs"),
        source!("crates/core/src/repair.rs"),
    ];
    let tests_start = concat!("#[cfg(", "test)]");
    let found: Vec<String> = sources
        .iter()
        .flat_map(|(file, src)| {
            let code = src.split(tests_start).next().unwrap_or(src);
            hits(file, code, |line| line.contains(needle))
        })
        .collect();
    assert!(
        found.is_empty(),
        "a recovery collective allgathers instead of planning at one rank:\n{}",
        found.join("\n")
    );
}

/// Each node's leader collects and quarantines only its own node: the
/// cluster-wide one-rank sweep is gone, so its name anywhere in the
/// workspace means it came back.
#[test]
fn no_cluster_wide_gc_sweep() {
    let needle = concat!("gc_", "superseded");
    let found: Vec<String> = workspace_sources()
        .iter()
        .flat_map(|(file, src)| hits(file, src, |line| line.contains(needle)))
        .collect();
    assert!(
        found.is_empty(),
        "the cluster-wide GC sweep is back:\n{}",
        found.join("\n")
    );
}

/// The lowest live leader reads every node's shards for the census's
/// stripe verification in `repair.rs`, and does nothing else: any other
/// non-test caller hands one rank work on other nodes' stores.
#[test]
fn the_lowest_live_leader_only_reads_stripes_for_the_census() {
    let call = concat!("lowest_live_", "leader(");
    let definition = concat!("fn ", "lowest_live_", "leader(");
    let tests_start = concat!("#[cfg(", "test)]");
    let found: Vec<String> = workspace_sources()
        .iter()
        .flat_map(|(file, src)| {
            let code = src.split(tests_start).next().unwrap_or(src);
            hits(file, code, |line| {
                line.contains(call) && !line.contains(definition)
            })
        })
        .collect();
    assert_eq!(found.len(), 1, "{}", found.join("\n"));
    assert!(
        found[0].starts_with("crates/core/src/repair.rs:"),
        "{}",
        found[0]
    );
}

/// Heal windows are sized by one world-wide key budget
/// (`HealOptions::window_keys`). The two per-node batch counts it
/// replaced, anywhere in the workspace, mean a second knob came back.
#[test]
fn heal_windows_have_one_budget() {
    let needles = [concat!("chunk_", "batch"), concat!("owner_", "batch")];
    let found: Vec<String> = workspace_sources()
        .iter()
        .flat_map(|(file, src)| {
            hits(file, src, |line| {
                needles.iter().any(|needle| line.contains(needle))
            })
        })
        .collect();
    assert!(
        found.is_empty(),
        "a per-node heal batch is back:\n{}",
        found.join("\n")
    );
}

/// The collective scrub ships a leader's whole held list to rank 0 only
/// when its caller reads the cluster-wide `dangling` and `orphans`: the
/// one unbounded listing in core's non-test code is `scrub_impl`'s, and
/// the branch it sits on tests `resolve`.
#[test]
fn the_census_lists_every_held_chunk_only_to_resolve() {
    let call = concat!("chunk_fps(node, None, ", "usize::MAX)");
    let tests_start = concat!("#[cfg(", "test)]");
    let mut found = Vec::new();
    let sources = workspace_sources();
    for (file, src) in &sources {
        if !file.starts_with("crates/core/src/") {
            continue;
        }
        let code = src.split(tests_start).next().unwrap_or(src);
        let lines: Vec<&str> = code.lines().collect();
        for (at, line) in lines.iter().enumerate() {
            if line.contains(call) {
                let arm = lines[..at].iter().rev().find(|l| l.contains("if "));
                let arm = arm.map_or("", |l| l.trim());
                found.push((format!("{file}:{}", at + 1), arm.to_string()));
            }
        }
    }
    assert_eq!(found.len(), 1, "{found:?}");
    let (at, arm) = &found[0];
    assert!(at.starts_with("crates/core/src/repair.rs:"), "{at}");
    assert!(
        arm.contains("resolve"),
        "{at}: the unbounded listing sits on `{arm}`, not on the resolve arm"
    );
}

/// The byte span of the function declared by `signature` in `src`: from
/// its line through the closing brace at that line's indentation.
fn fn_span(file: &str, src: &str, signature: &str) -> std::ops::Range<usize> {
    let at = src
        .find(signature)
        .unwrap_or_else(|| panic!("{file}: no `{signature}`"));
    let start = src[..at].rfind('\n').map_or(0, |i| i + 1);
    let indent = &src[start..at];
    let close = format!(
        "\n{}}}\n",
        &indent[..indent.len() - indent.trim_start().len()]
    );
    let len = src[at..]
        .find(&close)
        .unwrap_or_else(|| panic!("{file}: `{signature}` never closes"));
    start..at + len + close.len()
}

/// `src` with the lines of `span` (`keep == false`) or all other lines
/// (`keep == true`) emptied, so `hits` still reports the file's line
/// numbers.
fn blank(src: &str, span: std::ops::Range<usize>, keep: bool) -> String {
    let empty = |s: &str| "\n".repeat(s.matches('\n').count());
    let (head, body, tail) = (&src[..span.start], &src[span.clone()], &src[span.end..]);
    if keep {
        empty(head) + body
    } else {
        format!("{head}{}{tail}", empty(body))
    }
}

/// The dump's local index, restore's two verification sites, a node
/// scrub's re-hash and the stripe pass's clean path check chunks in
/// batches, through
/// `ChunkHasher::fingerprint_all` (the dump via `fingerprint_ranges`), so
/// a batch kernel sees every chunk at once. A one-chunk `fingerprint`
/// call there means a site went back to hashing one chunk at a time; the
/// only one left is restore's stripe rescue, which rebuilds one payload.
#[test]
fn chunk_checks_hash_in_batches() {
    let single = concat!(".finger", "print(");
    let batch = concat!(".fingerprint", "_all(");
    let tests_start = concat!("#[cfg(", "test)]");
    let code = |(file, src): (&'static str, &'static str)| {
        (file, src.split(tests_start).next().unwrap_or(src))
    };
    let body = |(file, src): (&str, &str), signature: &str| {
        let span = fn_span(file, src, signature);
        src[span].to_string()
    };
    let hash = code(source!("crates/hash/src/lib.rs"));
    let local = code(source!("crates/core/src/local.rs"));
    let restore = code(source!("crates/core/src/restore.rs"));
    let scrub = code(source!("crates/storage/src/scrub.rs"));

    assert!(
        body(hash, "pub fn fingerprint_ranges(").contains(batch),
        "fingerprint_ranges is not one batch"
    );
    assert!(local.1.contains("fingerprint_ranges("), "the local index");
    let mut found = hits(local.0, local.1, |line| line.contains(single));

    let rescue = fn_span(restore.0, restore.1, "fn stripe_rescue(");
    let outside_rescue = blank(restore.1, rescue, false);
    found.extend(hits(restore.0, &outside_rescue, |line| {
        line.contains(single)
    }));
    assert!(
        body(restore, "fn intact(").contains(batch),
        "restore's `intact` is not one batch"
    );
    assert_eq!(
        body(restore, "fn restore_impl(")
            .matches("intact(ctx.hasher")
            .count(),
        2,
        "both of restore's verification sites go through `intact`"
    );

    let node = fn_span(scrub.0, scrub.1, "pub fn scrub_node(");
    let node = blank(scrub.1, node, true);
    assert!(node.contains(batch), "scrub_node's pass 1 is not one batch");
    found.extend(hits(scrub.0, &node, |line| line.contains(single)));

    let stripes = stripe_clean_path(scrub);
    assert!(
        stripes.contains(batch),
        "the stripe pass's chunk hashes are not one batch"
    );
    found.extend(hits(scrub.0, &stripes, |line| line.contains(single)));
    assert!(
        found.is_empty(),
        "a chunk check hashes one chunk at a time:\n{}",
        found.join("\n")
    );
}

/// The stripe pass's clean path in `scrub.rs` (`scrub_stripes` and the
/// `CleanPath` methods, tests cut off), every other line blanked.
fn stripe_clean_path((file, src): (&'static str, &'static str)) -> String {
    let code = src.split(concat!("#[cfg(", "test)]")).next().unwrap_or(src);
    let spans = [
        fn_span(file, code, "pub fn scrub_stripes("),
        fn_span(file, code, "impl<'a> CleanPath<'a> {"),
    ];
    let mut at = 0;
    code.split_inclusive('\n')
        .map(|line| {
            let start = at;
            at += line.len();
            if spans.iter().any(|span| span.contains(&start)) {
                line
            } else {
                "\n"
            }
        })
        .collect()
}

/// The stripe pass clears a clean stripe without decoding it: its clean
/// path recomputes parity in cache (`RsCode::parity_mismatches`) and never
/// calls `RsCode::decode` or `RsCode::encode`, which only the fallback for
/// a stripe that fails (`verify_stripe`) may do.
#[test]
fn the_stripe_clean_path_never_decodes() {
    let scrub = source!("crates/storage/src/scrub.rs");
    let clean = stripe_clean_path(scrub);
    assert!(
        clean.contains(".parity_mismatches("),
        "the clean path no longer checks parity in cache"
    );
    let needles = [concat!(".dec", "ode("), concat!(".enc", "ode(")];
    let found = hits(scrub.0, &clean, |line| {
        needles.iter().any(|needle| line.contains(needle))
    });
    assert!(
        found.is_empty(),
        "the stripe pass's clean path decodes or encodes:\n{}",
        found.join("\n")
    );
}
