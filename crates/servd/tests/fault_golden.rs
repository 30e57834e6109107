//! Golden oracle for the two fault-injection shims, written against their
//! public API only: the exact parse errors of `BENCHKIT_IOFAULTS` and
//! `BENCHKIT_NETFAULTS`, which of a fixed sequence of `write_atomic_with`
//! calls fail under a fixed seed (and with which message), and the full
//! netfault transcript of a fixed read/write script. Any refactor of the
//! shared draw kernel or spec parser must leave every literal here intact.

use servd::{NetFaultSpec, NetShim};
use spackle::{write_atomic_with, FaultSpec, IoShim};
use std::io;

#[test]
fn malformed_specs_fail_with_exact_messages() {
    let io_cases: &[(&str, &str)] = &[
        ("torn", "expected key=value, got \"torn\""),
        ("seed=3, enospc", "expected key=value, got \" enospc\""),
        ("torn=x", "bad probability for torn: \"x\""),
        ("fsync=", "bad probability for fsync: \"\""),
        ("rename=1.5", "probability for rename out of [0,1]: 1.5"),
        (
            "dirfsync=-0.1",
            "probability for dirfsync out of [0,1]: -0.1",
        ),
        ("seed=x", "bad seed: \"x\""),
        ("seed=-1", "bad seed: \"-1\""),
        ("bogus=1", "unknown fault key \"bogus\""),
        ("short=0.5", "unknown fault key \"short\""),
        ("stallms=5", "unknown fault key \"stallms\""),
    ];
    for (text, want) in io_cases {
        assert_eq!(
            FaultSpec::parse(text).unwrap_err(),
            *want,
            "iofault {text:?}"
        );
    }
    let net_cases: &[(&str, &str)] = &[
        ("torn", "expected key=value, got \"torn\""),
        ("seed=3, reset", "expected key=value, got \" reset\""),
        ("short=x", "bad probability for short: \"x\""),
        ("reset=2", "probability for reset out of [0,1]: 2"),
        ("stall=-1", "probability for stall out of [0,1]: -1"),
        ("seed=1.5", "bad seed: \"1.5\""),
        ("stallms=x", "bad stallms: \"x\""),
        ("stallms=-5", "bad stallms: \"-5\""),
        ("bogus=1", "unknown fault key \"bogus\""),
        ("enospc=0.5", "unknown fault key \"enospc\""),
        ("match=shard-", "unknown fault key \"match\""),
    ];
    for (text, want) in net_cases {
        assert_eq!(
            NetFaultSpec::parse(text).unwrap_err(),
            *want,
            "netfault {text:?}"
        );
    }
}

#[test]
fn write_atomic_fault_schedule_is_pinned() {
    // The directory's own name keys the directory-fsync draws, so it is
    // fixed; the unique parent keeps parallel runs apart.
    let parent = std::env::temp_dir().join(format!("servd-fault-golden-{}", std::process::id()));
    let dir = parent.join("golden");
    let _ = std::fs::remove_dir_all(&parent);
    std::fs::create_dir_all(&dir).unwrap();
    let spec =
        FaultSpec::parse("seed=6,torn=0.15,enospc=0.15,fsync=0.15,rename=0.15,dirfsync=0.15")
            .unwrap();
    let io = IoShim::faulty(spec);
    let shown = dir.display().to_string();
    let outcomes: Vec<String> = (0..20)
        .map(|i| {
            let path = dir.join(format!("e{}.json", i % 5));
            match write_atomic_with(&io, &path, "0123456789") {
                Ok(()) => format!("{i}: ok"),
                Err(e) => format!("{i}: {}", e.to_string().replace(&shown, "DIR")),
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&parent);
    const WANT: &[&str] = &[
        "0: ok",
        "1: injected rename failure (DIR/e1.json)",
        "2: injected torn write at byte 1 of 10 (DIR/e2.json)",
        "3: ok",
        "4: injected fsync failure (DIR/e4.json)",
        "5: injected directory fsync failure (DIR)",
        "6: injected rename failure (DIR/e1.json)",
        "7: ok",
        "8: ok",
        "9: ok",
        "10: injected fsync failure (DIR/e0.json)",
        "11: injected torn write at byte 3 of 10 (DIR/e1.json)",
        "12: injected ENOSPC (DIR/e2.json)",
        "13: ok",
        "14: injected fsync failure (DIR/e4.json)",
        "15: ok",
        "16: injected ENOSPC (DIR/e1.json)",
        "17: injected ENOSPC (DIR/e2.json)",
        "18: ok",
        "19: ok",
    ];
    assert_eq!(outcomes, WANT, "{outcomes:#?}");
}

#[test]
fn netfault_transcript_is_pinned() {
    let spec =
        NetFaultSpec::parse("seed=5,torn=0.3,short=0.3,reset=0.2,stall=0.2,stallms=0").unwrap();
    let shim = NetShim::faulty(spec);
    for conn_id in 0..4u64 {
        let conn = shim.conn(conn_id);
        for _ in 0..4 {
            let mut src = io::Cursor::new(b"r".repeat(24));
            let mut buf = [0u8; 24];
            let _ = conn.read(&mut src, &mut buf);
            let _ = conn.write_all(&mut io::sink(), b"response".as_ref());
        }
    }
    let transcript = shim.transcript();
    const WANT: &[&str] = &[
        "conn=000000 read:reset n=000000",
        "conn=000000 read:reset n=000003",
        "conn=000000 read:stall n=000003",
        "conn=000000 read:torn n=000001",
        "conn=000000 write:reset n=000001",
        "conn=000000 write:short n=000000",
        "conn=000000 write:short n=000001",
        "conn=000001 read:stall n=000000",
        "conn=000001 read:stall n=000001",
        "conn=000001 read:torn n=000000",
        "conn=000001 write:reset n=000001",
        "conn=000001 write:short n=000001",
        "conn=000001 write:short n=000002",
        "conn=000002 read:torn n=000000",
        "conn=000002 read:torn n=000001",
        "conn=000002 write:reset n=000002",
        "conn=000002 write:reset n=000003",
        "conn=000003 read:reset n=000002",
        "conn=000003 read:reset n=000003",
        "conn=000003 read:torn n=000000",
        "conn=000003 write:reset n=000002",
        "conn=000003 write:stall n=000001",
    ];
    assert_eq!(transcript, WANT, "{transcript:#?}");
}
