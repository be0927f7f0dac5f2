//! Fault-injection tests: a real `Server` on loopback with a
//! deterministic [`FaultPlan`], proving the containment boundaries —
//! one component fails, one session recovers or errors, everything
//! else (including the final SHUTDOWN exit) is unaffected.

use csst_analyses::registry::{self, IndexKind};
use csst_serve::proto::{
    read_frame, write_frame, Hello, WireFormat, MAX_FRAME, T_ERROR, T_EVENTS, T_HELLO, T_OK,
};
use csst_serve::{Client, FaultPlan, Server, ServerCfg};
use std::io::Write;
use std::net::TcpStream;

/// Binds a server with `cfg` on an OS-chosen port and runs it on a
/// background thread.
fn spawn_server_with(cfg: ServerCfg) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind_with("tcp:127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn batch_hb_report() -> (u8, String, Vec<String>) {
    batch_report("hb")
}

fn run_hb_session(addr: &str) -> csst_serve::Report {
    let hello = Hello {
        analysis: "hb".into(),
        index: "csst".into(),
        format: WireFormat::Binary,
        shards: 1,
        window: None,
    };
    let mut client = Client::open(addr, &hello).expect("open hb session");
    client
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");
    client.finish().expect("hb report")
}

fn batch_report(analysis: &str) -> (u8, String, Vec<String>) {
    let entry = registry::find(analysis).unwrap();
    let out = entry
        .run(&entry.demo_trace(), IndexKind::Csst, None)
        .unwrap();
    (out.exit_code, out.summary, out.lines)
}

/// A witness-worker panic in a `race` session is a contained panic
/// boundary: the panicked chunk is re-checked sequentially, so the
/// report is still byte-identical to the batch run — and a concurrent
/// healthy hb session is untouched. The server still exits 0 on
/// SHUTDOWN.
#[test]
fn witness_panic_is_recovered_and_reports_match_batch() {
    let faults = FaultPlan::parse("panic-witness=0@1").unwrap();
    let cfg = ServerCfg {
        faults: faults.clone(),
        ..Default::default()
    };
    let (addr, handle) = spawn_server_with(cfg);

    let race = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let hello = Hello {
                analysis: "race".into(),
                shards: 2,
                ..Hello::default()
            };
            let mut client = Client::open(&addr, &hello).expect("open race session");
            client
                .send_trace(&registry::find("race").unwrap().demo_trace())
                .expect("send");
            client.finish().expect("race report")
        })
    };
    let healthy = {
        let addr = addr.clone();
        std::thread::spawn(move || run_hb_session(&addr))
    };
    let race = race.join().unwrap();
    assert_eq!(
        (race.exit_code, race.summary, race.lines),
        batch_report("race")
    );
    let healthy = healthy.join().unwrap();
    assert_eq!(
        (healthy.exit_code, healthy.summary, healthy.lines),
        batch_hb_report()
    );
    assert_eq!(faults.fired(), 1, "the injected panic must have hit");

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// Satellite: oversized, truncated and unknown-type frames each get a
/// structured `protocol:` ERROR and a clean close — while a healthy
/// session opened *before* the attacks completes unaffected afterwards.
#[test]
fn malformed_frames_get_structured_errors_and_spare_other_sessions() {
    let (addr, handle) = spawn_server_with(ServerCfg::default());
    let tcp = addr.strip_prefix("tcp:").unwrap();

    // The healthy session: opened first, finished last.
    let hello = Hello::default();
    let mut healthy = Client::open(&addr, &hello).expect("open healthy session");
    healthy
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");

    // Oversized frame: a length prefix above MAX_FRAME.
    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, &Hello::default().encode()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    stream
        .write_all(&((MAX_FRAME as u32) + 10).to_le_bytes())
        .unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
    assert_eq!(tag, T_ERROR);
    let msg = String::from_utf8(payload).unwrap();
    assert!(msg.starts_with("protocol:"), "{msg}");
    assert!(msg.contains("exceeds"), "{msg}");
    assert_eq!(read_frame(&mut stream).unwrap(), None, "clean close");

    // Unknown frame tag.
    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, &Hello::default().encode()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    write_frame(&mut stream, 0x77, b"").unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
    assert_eq!(tag, T_ERROR);
    let msg = String::from_utf8(payload).unwrap();
    assert!(msg.starts_with("protocol: unexpected frame tag"), "{msg}");

    // Truncated frame: half a length prefix, then write-side close.
    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, &Hello::default().encode()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    stream.write_all(&[0x44, 0x00]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
    assert_eq!(tag, T_ERROR);
    let msg = String::from_utf8(payload).unwrap();
    assert!(msg.starts_with("protocol:"), "{msg}");

    // The healthy session was unaffected by all three.
    let report = healthy.finish().expect("healthy report");
    let (code, summary, lines) = batch_hb_report();
    assert_eq!(
        (report.exit_code, report.summary, report.lines),
        (code, summary, lines)
    );

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// An injected corrupt-events fault must surface as a structured
/// `decode:` ERROR (never a panic), end only that session, and leave
/// the server serving.
#[test]
fn injected_frame_corruption_is_a_decode_error() {
    let cfg = ServerCfg {
        faults: FaultPlan::parse("corrupt-events=1").unwrap(),
        ..Default::default()
    };
    let (addr, handle) = spawn_server_with(cfg);
    let tcp = addr.strip_prefix("tcp:").unwrap();

    let mut stream = TcpStream::connect(tcp).unwrap();
    write_frame(&mut stream, T_HELLO, &Hello::default().encode()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
    let mut payload = Vec::new();
    let trace = registry::find("hb").unwrap().demo_trace();
    for (id, ev) in trace.iter_order() {
        csst_trace::binary::encode_event(id.thread, &ev.kind, &mut payload);
    }
    write_frame(&mut stream, T_EVENTS, &payload).unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
    assert_eq!(tag, T_ERROR);
    let msg = String::from_utf8(payload).unwrap();
    assert!(msg.starts_with("decode:"), "{msg}");

    // The server is still healthy.
    let report = run_hb_session(&addr);
    let (code, ..) = batch_hb_report();
    assert_eq!(report.exit_code, code);

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// Client-side reconnect: `open_with_retry` rides out a server that is
/// still starting up.
#[test]
fn open_with_retry_waits_for_a_late_server() {
    let dir = std::env::temp_dir().join(format!("csst-retry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("late.sock");
    let addr = format!("unix:{}", sock.display());

    // The server binds only after a delay; the first attempts fail
    // with NotFound/ConnectionRefused and must be retried.
    let server_addr = addr.clone();
    let server = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(300));
        let server = Server::bind(&server_addr).expect("late bind");
        server.run()
    });

    let mut client = Client::open_with_retry(&addr, &Hello::default(), 10)
        .expect("retry until the server is up");
    client
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");
    assert!(client.finish().is_ok());

    Client::shutdown_server(&addr).expect("shutdown");
    server.join().unwrap().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Text-format EVENTS frames naming a thread beyond the addressable
/// chains get a `decode:` ERROR naming the line — the first and last
/// used to abort the server on a multi-GB allocation (the last in the
/// dense CSST pair matrix), the middle one to panic in the index —
/// while a concurrent healthy text session completes unaffected.
#[test]
fn hostile_text_thread_ids_are_decode_errors() {
    let (addr, handle) = spawn_server_with(ServerCfg::default());
    let tcp = addr.strip_prefix("tcp:").unwrap();
    let text_hello = Hello {
        format: WireFormat::Text,
        ..Hello::default()
    };

    let mut healthy = Client::open(&addr, &text_hello).expect("open healthy session");
    healthy
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");

    for frame in [
        "t4000000000 w x0 1\n",
        "t0 w x0 1\nt70000 w x0 1\n",
        "t0 r x0 1\nt16000 w x0 1\n",
    ] {
        let mut stream = TcpStream::connect(tcp).unwrap();
        write_frame(&mut stream, T_HELLO, &text_hello.encode()).unwrap();
        assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
        write_frame(&mut stream, T_EVENTS, frame.as_bytes()).unwrap();
        let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
        assert_eq!(tag, T_ERROR);
        let msg = String::from_utf8(payload).unwrap();
        assert!(msg.starts_with("decode:"), "{msg}");
        let line = frame.lines().count();
        assert!(msg.contains(&format!("line {line}:")), "{msg}");
        assert!(msg.contains("addressable chains"), "{msg}");
    }

    let report = healthy.finish().expect("healthy report");
    let (code, summary, lines) = batch_hb_report();
    assert_eq!(
        (report.exit_code, report.summary, report.lines),
        (code, summary, lines)
    );

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}

/// The RAPID and CSTB decoders enforce the same chain limit as text: a
/// RAPID frame with more distinct thread names than chains, and CSTB
/// records naming an over-limit thread or fork child, each get a
/// `decode:` ERROR — while a concurrent healthy session's report equals
/// the batch run.
#[test]
fn over_limit_rapid_and_cstb_threads_are_decode_errors() {
    use csst_core::{ThreadId, MAX_CHAINS};
    use csst_trace::binary::encode_event;
    use csst_trace::EventKind;

    let (addr, handle) = spawn_server_with(ServerCfg::default());
    let tcp = addr.strip_prefix("tcp:").unwrap();

    let mut healthy = Client::open(&addr, &Hello::default()).expect("open healthy session");
    healthy
        .send_trace(&registry::find("hb").unwrap().demo_trace())
        .expect("send");

    let write = EventKind::Write {
        var: 0.into(),
        value: 1,
    };
    let record = |thread: u32, kind: EventKind| {
        let mut buf = Vec::new();
        encode_event(ThreadId(0), &write, &mut buf);
        encode_event(ThreadId(thread), &kind, &mut buf);
        buf
    };
    let rapid: String = (0..=MAX_CHAINS).map(|i| format!("T{i}|w(V0)\n")).collect();
    let frames = [
        (WireFormat::Rapid, rapid.into_bytes()),
        (WireFormat::Binary, record(16_000, write)),
        (
            WireFormat::Binary,
            record(
                0,
                EventKind::Fork {
                    child: ThreadId(MAX_CHAINS as u32),
                },
            ),
        ),
    ];
    for (format, frame) in frames {
        let hello = Hello {
            format,
            ..Hello::default()
        };
        let mut stream = TcpStream::connect(tcp).unwrap();
        // An accepted frame gets no reply: fail instead of hanging.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, T_HELLO, &hello.encode()).unwrap();
        assert_eq!(read_frame(&mut stream).unwrap().unwrap().0, T_OK);
        write_frame(&mut stream, T_EVENTS, &frame).unwrap();
        let (tag, payload) = read_frame(&mut stream).unwrap().expect("error reply");
        assert_eq!(tag, T_ERROR);
        let msg = String::from_utf8(payload).unwrap();
        assert!(msg.starts_with("decode:"), "{format:?}: {msg}");
        assert!(msg.contains("addressable chains"), "{format:?}: {msg}");
    }

    let report = healthy.finish().expect("healthy report");
    assert_eq!(
        (report.exit_code, report.summary, report.lines),
        batch_hb_report()
    );

    Client::shutdown_server(&addr).expect("shutdown");
    handle.join().unwrap().expect("server exits cleanly");
}
