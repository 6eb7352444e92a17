//! Socket smoke test: the daemon is a thin transport over the
//! replay-tested engine, so every framed response read back over TCP
//! must match what an in-process engine produces for the same lines —
//! byte for byte.

use std::time::{Duration, Instant};

use noc_service::{Client, Engine, EngineConfig, Server};

#[test]
fn daemon_responses_match_the_in_process_engine_verbatim() {
    let cfg = EngineConfig::default();
    let server = Server::bind(cfg.clone(), 0).expect("bind on an OS-assigned port");
    let port = server.port().expect("bound port");
    let daemon = std::thread::spawn(move || server.run());

    let mut reference = Engine::new(cfg).expect("valid default config");
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect to daemon");

    let lines = [
        "add u0 flow 0 1 400 ; flow 1 2 250",
        "add u1 flow 3 4 150 30",
        "add u1 flow 5 6 100", // duplicate id -> error event at flush
        "modify u0 flow 0 2 300",
        "remove missing",
        "flush",
        "stats",
        "snapshot",
        "bogus command",
        "shutdown",
    ];
    for line in lines {
        let over_socket = client.send(line).expect("framed response");
        let in_process = reference.submit_line(line);
        assert_eq!(over_socket, in_process, "divergent response for {line:?}");
    }

    daemon
        .join()
        .expect("daemon thread")
        .expect("clean shutdown");
}

/// Requests on a kept-alive connection must not wait for the daemon's
/// delayed ACK. A request sent as two writes (the line, then its
/// newline) let Nagle's algorithm hold the newline until the first
/// segment was acknowledged, about 40 ms later on Linux, so every round
/// trip took at least that long; sent in one write without Nagle, a
/// `stats` round trip on loopback takes well under a millisecond.
#[test]
fn kept_alive_round_trips_do_not_wait_for_a_delayed_ack() {
    let server = Server::bind(EngineConfig::default(), 0).expect("bind on an OS-assigned port");
    let port = server.port().expect("bound port");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect to daemon");

    let mut round_trips: Vec<Duration> = (0..40)
        .map(|_| {
            let started = Instant::now();
            client.send("stats").expect("framed response");
            started.elapsed()
        })
        .collect();
    client.send("shutdown").expect("framed response");
    daemon
        .join()
        .expect("daemon thread")
        .expect("clean shutdown");

    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?}: requests wait for a delayed ACK"
    );
}
