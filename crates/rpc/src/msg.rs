//! RPC wire messages, declared once in [`wire_enum!`], which derives
//! their codec.

use amoeba_flip::{wire_enum, HostAddr, Payload, Port};

wire_enum! {
    /// Everything that travels on the per-host RPC port.
    ///
    /// Decoded with [`Wire::decode_shared`](amoeba_flip::wire::Wire::decode_shared),
    /// request and reply bytes are zero-copy slices of the packet.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RpcMsg {
        /// Broadcast by a client kernel: "who serves `service`?"
        1 => Locate {
            /// The service port being located.
            service: Port,
            /// Who is asking (replies go here).
            client: HostAddr,
            /// Correlates HEREIS replies with the locate.
            locate_id: u64,
        },
        /// Unicast answer to a locate: "I am listening on `service`".
        2 => HereIs {
            /// The located service port.
            service: Port,
            /// The answering server host.
            server: HostAddr,
            /// Echoed locate id.
            locate_id: u64,
        },
        /// A client request for one transaction.
        3 => Request {
            /// Target service port.
            service: Port,
            /// Requesting host (the reply destination).
            client: HostAddr,
            /// Transaction id, unique per client host.
            tid: u64,
            /// Marshalled request bytes (shared, zero-copy).
            data: Payload,
        },
        /// The server's answer to a request.
        4 => Reply {
            /// Echoed transaction id.
            tid: u64,
            /// Marshalled reply bytes (shared, zero-copy).
            data: Payload,
        },
        /// Kernel-level refusal: no thread is listening on the port right now.
        5 => NotHere {
            /// Echoed transaction id.
            tid: u64,
            /// The service that was not listening.
            service: Port,
        },
        /// Unicast by a client kernel whose reply is late: "is a thread of
        /// yours still working on my transaction `tid`?"
        6 => Enquire {
            /// The enquiring host (answers go here).
            client: HostAddr,
            /// The transaction asked about.
            tid: u64,
        },
        /// The answer to an enquiry when a server thread holds the
        /// transaction and has not replied yet. A kernel that does not
        /// hold it stays silent.
        7 => Working {
            /// Echoed transaction id.
            tid: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_flip::wire::Wire;
    use amoeba_testkit::{check, hex, mutants_refused_or_exact, unhex, Gen};

    /// Golden bytes of every variant: the first five captured from the
    /// hand-written encoder the `Wire` impl replaced.
    fn goldens() -> Vec<(RpcMsg, &'static str)> {
        let service = Port::from_raw(0x0102_0304_0506);
        vec![
            (
                RpcMsg::Locate {
                    service,
                    client: HostAddr(4),
                    locate_id: 77,
                },
                "010605040302010000040000004d00000000000000",
            ),
            (
                RpcMsg::HereIs {
                    service,
                    server: HostAddr(2),
                    locate_id: 77,
                },
                "020605040302010000020000004d00000000000000",
            ),
            (
                RpcMsg::Request {
                    service,
                    client: HostAddr(4),
                    tid: 1,
                    data: vec![1, 2, 3].into(),
                },
                "03060504030201000004000000010000000000000003000000010203",
            ),
            (
                RpcMsg::Reply {
                    tid: 1,
                    data: vec![9].into(),
                },
                "0401000000000000000100000009",
            ),
            (
                RpcMsg::NotHere { tid: 9, service },
                "0509000000000000000605040302010000",
            ),
            (
                RpcMsg::Enquire {
                    client: HostAddr(4),
                    tid: 9,
                },
                "06040000000900000000000000",
            ),
            (RpcMsg::Working { tid: 9 }, "070900000000000000"),
        ]
    }

    #[test]
    fn rpc_msgs_keep_their_bytes() {
        for (msg, golden) in goldens() {
            assert_eq!(hex(&msg.encode()), golden, "{msg:?}");
            let bytes = Payload::from(unhex(golden));
            assert_eq!(RpcMsg::decode_shared(&bytes), Ok(msg));
            let trailing = Payload::from([&unhex(golden)[..], &[0]].concat());
            assert!(
                RpcMsg::decode_shared(&trailing).is_err(),
                "{golden} + a byte"
            );
        }
    }

    #[test]
    fn mutated_rpc_msgs_are_refused_or_decode_exactly() {
        for (_, golden) in goldens() {
            mutants_refused_or_exact(&unhex(golden), |b| {
                let msg = RpcMsg::decode(b).ok()?;
                Some(msg.encode().to_vec())
            });
        }
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(RpcMsg::decode(&[99]).is_err());
    }

    #[test]
    fn trailing_garbage_errors() {
        let mut bytes = RpcMsg::Reply {
            tid: 1,
            data: Payload::empty(),
        }
        .encode()
        .as_slice()
        .to_owned();
        bytes.push(0);
        assert!(RpcMsg::decode(&bytes).is_err());
    }

    #[test]
    fn decoded_request_data_shares_wire_buffer() {
        let m = RpcMsg::Request {
            service: Port::from_raw(1),
            client: HostAddr(2),
            tid: 3,
            data: vec![5u8; 64].into(),
        };
        let wire = m.encode();
        let RpcMsg::Request { data, .. } = RpcMsg::decode_shared(&wire).unwrap() else {
            panic!("wrong variant");
        };
        let off = data.as_slice().as_ptr() as usize - wire.as_slice().as_ptr() as usize;
        assert!(off < wire.len(), "decoded data must alias the wire buffer");
    }

    #[test]
    fn prop_request_round_trip() {
        check("rpc request round trip", 256, |g: &mut Gen| {
            let m = RpcMsg::Request {
                service: Port::from_raw(g.u64()),
                client: HostAddr(g.u32()),
                tid: g.u64(),
                data: g.bytes(512).into(),
            };
            let bytes = m.encode();
            assert_eq!(RpcMsg::decode(&bytes).unwrap(), m);
        });
    }

    #[test]
    fn prop_decode_never_panics() {
        check("rpc decode never panics", 256, |g: &mut Gen| {
            let _ = RpcMsg::decode(&g.bytes(64));
        });
    }
}
