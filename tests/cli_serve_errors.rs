//! Exit-code contract of `lsdb serve` store handling: an unusable
//! `--store` (a file in its place, the retired paged layout, a log over
//! another map) must fail fast with a structured message on stderr and a
//! nonzero exit — before the index build, never as a panic. Likewise
//! `lsdb query` refuses a query point outside the world with exit 2 (one
//! failed line with `--stdin`), while a window may have any extent, and
//! no subcommand panics when the reader of its stdout has gone.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn lsdb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lsdb"))
}

/// Write a small map file for serve to load, returning its path.
fn write_map(dir: &Path) -> std::path::PathBuf {
    write_seeded_map(dir, 1)
}

/// Write the small map generated from `seed`.
fn write_seeded_map(dir: &Path, seed: u64) -> std::path::PathBuf {
    let path = dir.join(format!("tiny-{seed}.lsdbmap"));
    let out = lsdb()
        .args([
            "generate",
            "--class",
            "urban",
            "--segments",
            "200",
            "--seed",
        ])
        .arg(seed.to_string())
        .arg("-o")
        .arg(&path)
        .output()
        .expect("run lsdb generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lsdb-serve-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn serve_refuses_a_store_path_that_is_a_file() {
    let dir = temp_dir("file");
    let map = write_map(&dir);
    // --store points at an existing *file*: the store directory cannot
    // be created, which must surface as a structured error, not a panic.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"occupied").unwrap();
    let out = lsdb()
        .arg("serve")
        .arg(&map)
        .args(["--structure", "rstar", "--port", "0", "--store"])
        .arg(&blocker)
        .output()
        .expect("run lsdb serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot open store"),
        "stderr must name the store failure, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must be an error, not a panic: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_an_unknown_superblock_version() {
    let dir = temp_dir("version");
    let map = write_map(&dir);
    // Forge DIR/ops.pages with a valid magic but format version 99: the
    // server must refuse it (mentioning the version) instead of serving
    // a store whose pages it would misinterpret.
    let store = dir.join("store");
    std::fs::create_dir_all(&store).unwrap();
    let page_size = 1024usize;
    let mut page0 = vec![0u8; page_size];
    page0[..8].copy_from_slice(b"LSDBPAGE");
    page0[8..10].copy_from_slice(&99u16.to_le_bytes());
    page0[12..16].copy_from_slice(&(page_size as u32).to_le_bytes());
    std::fs::write(store.join("ops.pages"), &page0).unwrap();
    let out = lsdb()
        .arg("serve")
        .arg(&map)
        .args(["--structure", "rstar", "--port", "0", "--store"])
        .arg(&store)
        .output()
        .expect("run lsdb serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("version"),
        "stderr must mention the unsupported version, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must be an error, not a panic: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spawned `lsdb serve`, killed on drop so a failed assertion leaves
/// no server behind.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_refuses_a_store_created_over_another_map() {
    let dir = temp_dir("base");
    let first = write_seeded_map(&dir, 1);
    let second = write_seeded_map(&dir, 2);
    let store = dir.join("store");
    let serve = |map: &Path| {
        let child = lsdb()
            .arg("serve")
            .arg(map)
            .args(["--structure", "rstar", "--port", "0", "--store"])
            .arg(&store)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lsdb serve");
        Serve(child)
    };

    // Round one: a fresh store over the first map takes one INSERT over
    // the wire, then shuts down cleanly.
    let mut server = serve(&first);
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "serve exited before listening"
        );
        if let Some(rest) = line.strip_prefix("serving on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    let mut client = lsdb::server::Client::connect(addr.as_str()).unwrap();
    let seg = lsdb::geom::Segment {
        a: lsdb::geom::Point::new(16_001, 16_003),
        b: lsdb::geom::Point::new(16_011, 16_003),
    };
    let (_, lsn) = client.insert(seg).unwrap();
    assert_eq!(lsn, 1, "a fresh store's first op");
    client.shutdown().unwrap();
    stdout.read_to_string(&mut String::new()).unwrap();
    assert!(server.0.wait().unwrap().success());

    // Round two: the same store over a map generated from another seed.
    // Replaying the insert there would give it another id, so serve must
    // refuse before building, not keep serving.
    let mut server = serve(&second);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "serve over another map's store kept running"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut stderr = String::new();
    let mut pipe = server.0.stderr.take().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot open store") && stderr.contains("base map of"),
        "stderr must name the base map mismatch, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_refuses_points_outside_the_world() {
    let dir = temp_dir("query");
    let map = write_map(&dir);
    for args in [
        &["incident", "-5", "50"][..],
        &["nearest", "-5", "50"],
        &["knn", "50", "16384", "3"],
        &["polygon", "20000", "50"],
    ] {
        let out = lsdb()
            .arg("query")
            .arg(&map)
            .args(["--structure", "pmr"])
            .args(args)
            .output()
            .expect("run lsdb query");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("outside the world") && !stderr.contains("panicked"),
            "{args:?}: stderr must name the point and the world, got: {stderr}"
        );
    }
    // A window may reach past the world on every side.
    let out = lsdb()
        .arg("query")
        .arg(&map)
        .args([
            "--structure",
            "pmr",
            "window",
            "-100",
            "-100",
            "20000",
            "20000",
        ])
        .output()
        .expect("run lsdb query");
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // In --stdin mode the refused point is one failed line; the others run.
    let mut child = lsdb()
        .arg("query")
        .arg(&map)
        .args(["--structure", "pmr", "--stdin"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn lsdb query --stdin");
    {
        use std::io::Write;
        let mut stdin = child.stdin.take().unwrap();
        stdin
            .write_all(b"nearest -5 50\nnearest 8000 8000\nwindow -1 -1 99999 99999\n")
            .unwrap();
    }
    let out = child.wait_with_output().expect("wait for lsdb query");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("outside the world"), "{stderr}");
    assert!(stderr.contains("1 line(s) failed"), "{stderr}");
    assert!(stdout.contains("nearest segment"), "{stdout}");
    assert!(stdout.contains("segments in"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_ends_every_subcommand_without_a_panic() {
    let dir = temp_dir("closed-stdout");
    let map = write_map(&dir);
    let map = map.to_str().unwrap();
    let copy = dir.join("copy.lsdbmap");
    for args in [
        vec!["info", map],
        vec!["build", map, "--structure", "rplus"],
        vec![
            "query",
            map,
            "--structure",
            "pmr",
            "polygon",
            "8000",
            "8000",
        ],
        vec![
            "generate",
            "--class",
            "rural",
            "--segments",
            "100",
            "--seed",
            "3",
        ],
        vec!["serve", map, "--structure", "rstar", "--port", "0"],
    ] {
        let mut command = lsdb();
        command.args(&args);
        if args[0] == "generate" {
            command.arg("-o").arg(&copy);
        }
        // The reader goes away before the child has written a line: its
        // end of the pipe is closed before the child is spawned.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let mut child = Serve(
            command
                .stdout(writer)
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn lsdb"),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.0.try_wait().unwrap() {
                break status;
            }
            assert!(Instant::now() < deadline, "{args:?} kept running");
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        let mut pipe = child.0.stderr.take().unwrap();
        pipe.read_to_string(&mut stderr).unwrap();
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(status.code(), Some(0), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
