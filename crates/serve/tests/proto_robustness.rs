//! Robustness of the wire protocol against hostile or damaged input.
//!
//! The property under test: **no bytes a peer can send ever panic or
//! wedge this side**. Arbitrary garbage, bit-flipped frames, truncated
//! streams, oversized length prefixes, and version-skewed hellos must
//! all surface as the right typed [`ProtoError`] — and a live server
//! fed each of them must tear the connection down cleanly and keep
//! serving the next client.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cnt_serve::proto::{
    read_frame, read_hello, write_frame, Hello, Kind, ProtoError, FRAME_HEADER_BYTES, HELLO_BYTES,
    MAX_FRAME_PAYLOAD,
};
use cnt_serve::{Server, ServerConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes through the frame reader: typed error or a valid
    /// frame, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// Arbitrary 16-byte hellos: only BadMagic, UnsupportedVersion, or a
    /// well-formed hello.
    #[test]
    fn arbitrary_hellos_decode_or_fail_typed(bytes in proptest::collection::vec(any::<u8>(), HELLO_BYTES)) {
        let sized: &[u8; HELLO_BYTES] = bytes.as_slice().try_into().expect("sized");
        match Hello::from_bytes(sized) {
            Ok(hello) => prop_assert_eq!(hello.version, cnt_serve::proto::VERSION),
            Err(ProtoError::BadMagic { .. } | ProtoError::UnsupportedVersion { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Flipping any single bit of a valid frame either still decodes to
    /// the same payload (flips confined to the ignored flags/reserved
    /// header bytes) or fails with a typed error — never a panic, never
    /// a silently different payload.
    #[test]
    fn single_bit_flips_never_silently_alter_a_frame(seed in any::<u64>(), bit in 0u8..8) {
        let payload = seed.to_le_bytes();
        let mut wire = Vec::new();
        write_frame(&mut wire, Kind::Chunk, &payload).expect("writes");
        let index = (seed % wire.len() as u64) as usize;
        wire[index] ^= 1 << bit;
        match read_frame(&mut wire.as_slice()) {
            Ok((kind, decoded)) => {
                // Only the ignored flags/reserved bytes (1..4) or a
                // kind-byte flip that lands on another valid kind may
                // still decode — and the payload must be untouched.
                if index == 0 {
                    prop_assert!(kind != Kind::Chunk, "kind flip cannot be invisible");
                } else {
                    prop_assert!(
                        (1..4).contains(&index),
                        "flip at byte {} must not decode", index
                    );
                    prop_assert_eq!(kind, Kind::Chunk);
                }
                prop_assert_eq!(decoded, payload.to_vec());
            }
            Err(
                ProtoError::UnknownKind { .. }
                | ProtoError::Crc { .. }
                | ProtoError::Oversized { .. }
                | ProtoError::Io(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Truncating a valid frame anywhere yields a typed error (or, cut
    /// exactly at the frame boundary, a clean `Closed` on the next read).
    #[test]
    fn truncated_frames_fail_typed(cut in any::<u64>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, Kind::Obs, b"{\"epoch\":0}\n").expect("writes");
        let cut = (cut % wire.len() as u64) as usize;
        match read_frame(&mut &wire[..cut]) {
            Err(ProtoError::Closed) => prop_assert_eq!(cut, 0),
            Err(ProtoError::Io(_)) => {}
            Ok(_) => prop_assert!(false, "truncated frame decoded"),
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}

/// Boots a loopback server for the live-connection cases.
fn test_server(name: &str) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let state = std::env::temp_dir().join(format!("cnt_serve_proto_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&state).ok();
    let cfg = ServerConfig {
        state_dir: state,
        spool_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("binds");
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            server.run(&shutdown, None).expect("listener survives");
        })
    };
    (addr, shutdown, handle)
}

/// Sets the flag and connects once, which wakes the blocking accept.
fn stop_server(
    addr: &str,
    state_name: &str,
    shutdown: &AtomicBool,
    handle: std::thread::JoinHandle<()>,
) {
    shutdown.store(true, Ordering::SeqCst);
    TcpStream::connect(addr).expect("wake connection");
    handle.join().expect("server thread exits");
    let state = std::env::temp_dir().join(format!(
        "cnt_serve_proto_{state_name}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(state).ok();
}

/// Reads everything the server sends until it hangs up.
fn drain(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).ok();
    bytes
}

/// A version-skewed client still receives the server's hello (so it can
/// report what the server speaks) plus a typed fatal error — then a
/// clean close. The server keeps serving afterwards.
#[test]
fn version_skew_gets_a_typed_refusal_and_a_clean_close() {
    let (addr, shutdown, handle) = test_server("skew");

    let mut stream = TcpStream::connect(&addr).expect("connects");
    let mut skewed = Hello::ours(0).to_bytes();
    skewed[8] = 0x63; // version 99
    stream.write_all(&skewed).expect("writes");
    let reply = drain(&mut stream);

    // The reply opens with the server's own well-formed hello...
    assert!(
        reply.len() >= HELLO_BYTES,
        "server sent {} bytes",
        reply.len()
    );
    let hello_bytes: &[u8; HELLO_BYTES] = reply[..HELLO_BYTES].try_into().expect("sized");
    let hello = Hello::from_bytes(hello_bytes).expect("server hello is well-formed");
    assert_eq!(hello.version, cnt_serve::proto::VERSION);
    // ...followed by a fatal Error frame naming the skew.
    let mut rest = &reply[HELLO_BYTES..];
    let (kind, payload) = read_frame(&mut rest).expect("error frame follows");
    assert_eq!(kind, Kind::Error);
    let e: cnt_serve::proto::ErrorMsg =
        cnt_serve::proto::decode_msg("ErrorMsg", &payload).expect("typed error");
    assert_eq!(e.code, "version-skew");
    assert!(e.fatal);

    // The server is still healthy: a well-formed hello gets one back.
    let mut second = TcpStream::connect(&addr).expect("connects");
    second
        .write_all(&Hello::ours(0).to_bytes())
        .expect("writes");
    let mut hello_back = [0u8; HELLO_BYTES];
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    second.read_exact(&mut hello_back).expect("server answers");
    Hello::from_bytes(&hello_back).expect("well-formed");

    drop(stream);
    drop(second);
    stop_server(&addr, "skew", &shutdown, handle);
}

/// An oversized length prefix after a valid handshake is refused with a
/// typed error before any allocation, and the connection closes.
#[test]
fn oversized_frames_are_refused_without_allocation() {
    let (addr, shutdown, handle) = test_server("oversized");

    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .write_all(&Hello::ours(0).to_bytes())
        .expect("writes");
    let mut hello_back = [0u8; HELLO_BYTES];
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.read_exact(&mut hello_back).expect("handshake");

    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[0] = 0x01; // OpenSession
    header[4..8].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    stream.write_all(&header).expect("writes");
    let reply = drain(&mut stream);
    let (kind, payload) = read_frame(&mut reply.as_slice()).expect("error frame");
    assert_eq!(kind, Kind::Error);
    let e: cnt_serve::proto::ErrorMsg =
        cnt_serve::proto::decode_msg("ErrorMsg", &payload).expect("typed error");
    assert_eq!(e.code, "oversized-frame");

    drop(stream);
    stop_server(&addr, "oversized", &shutdown, handle);
}

/// Pure garbage instead of a hello: `bad-magic`, clean close, server
/// unharmed.
#[test]
fn garbage_handshake_is_refused() {
    let (addr, shutdown, handle) = test_server("garbage");

    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.write_all(b"GET / HTTP/1.1\r\n").expect("writes");
    let reply = drain(&mut stream);
    assert!(reply.len() >= HELLO_BYTES);
    let mut rest = &reply[HELLO_BYTES..];
    let (kind, payload) = read_frame(&mut rest).expect("error frame");
    assert_eq!(kind, Kind::Error);
    let e: cnt_serve::proto::ErrorMsg =
        cnt_serve::proto::decode_msg("ErrorMsg", &payload).expect("typed error");
    assert_eq!(e.code, "bad-magic");

    drop(stream);
    stop_server(&addr, "garbage", &shutdown, handle);
}

/// A hello read on the server side must also be immune to a client that
/// connects and immediately hangs up.
#[test]
fn instant_hangup_does_not_wedge_the_server() {
    let (addr, shutdown, handle) = test_server("hangup");
    for _ in 0..4 {
        drop(TcpStream::connect(&addr).expect("connects"));
    }
    // Still serving.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .write_all(&Hello::ours(0).to_bytes())
        .expect("writes");
    let mut hello_back = [0u8; HELLO_BYTES];
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.read_exact(&mut hello_back).expect("server answers");
    drop(stream);
    stop_server(&addr, "hangup", &shutdown, handle);
}

/// The hello reader itself rejects valid-magic, skewed-version input
/// without consuming anything beyond the 16 bytes.
#[test]
fn hello_reader_is_exact() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&Hello::ours(7).to_bytes());
    wire.extend_from_slice(b"trailing");
    let mut r = wire.as_slice();
    let hello = read_hello(&mut r).expect("reads");
    assert_eq!(hello.features, 7);
    assert_eq!(r, b"trailing", "exactly 16 bytes consumed");
}
