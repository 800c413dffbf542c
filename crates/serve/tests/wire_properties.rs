//! Properties of the wire decoders, which read bytes from outside the
//! process:
//!
//! 1. arbitrary payloads of 0–512 bytes never panic any decoder;
//! 2. generated requests and every response kind round-trip;
//! 3. the request and OK-response decoders are canonical: after any
//!    single-byte change of a valid payload, a decoder either errors or
//!    returns a value that re-encodes to exactly the changed payload.

use bsnn_serve::net::{
    decode_request, decode_response, decode_stats_reply, decode_stats_request,
    encode_request_with_deadline, encode_response_deadline, encode_response_error,
    encode_response_ok, encode_response_shed, encode_stats_reply, KIND_REQUEST, KIND_RESPONSE,
    KIND_STATS, KIND_STATS_REPLY,
};
use bsnn_serve::{ExitPolicy, ExitReason, InferResponse, NetResponse, ShedReason};
use proptest::prelude::*;

/// Characters model names and error messages are drawn from: ASCII plus
/// two- and three-byte UTF-8, so a byte change can split a character.
const ALPHABET: [char; 8] = ['a', 'z', '0', '-', '_', '.', 'é', '€'];

fn text(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| ALPHABET[i % ALPHABET.len()])
        .collect()
}

/// An exit policy from a tag and raw fields.
fn policy(tag: u8, a: u32, b: u32, c: u32, spikes: u64, margin: f32) -> ExitPolicy {
    match tag % 3 {
        0 => ExitPolicy::Fixed { steps: a as usize },
        1 => ExitPolicy::ConfidenceMargin {
            margin,
            patience: a as usize,
            check_every: b as usize,
            max_steps: c as usize,
        },
        _ => ExitPolicy::SpikeBudget {
            max_spikes: spikes,
            max_steps: c as usize,
        },
    }
}

/// An OK response from raw fields.
#[allow(clippy::too_many_arguments)]
fn ok_response(
    a: u32,
    b: u32,
    spikes: u64,
    margin: f32,
    exit: u8,
    big: u64,
    c: u32,
    degraded: u8,
) -> InferResponse {
    InferResponse {
        prediction: a as usize,
        steps: b as usize,
        spikes,
        margin,
        exit: match exit % 3 {
            0 => ExitReason::HorizonReached,
            1 => ExitReason::Converged,
            _ => ExitReason::BudgetExhausted,
        },
        model_epoch: big,
        queue_micros: big.rotate_left(17),
        service_micros: big.rotate_left(41),
        batch_size: c as usize,
        degraded: degraded == 1,
    }
}

/// The payload (the bytes after the 4-byte length header) of the one
/// frame in `frame`.
fn payload(frame: &[u8]) -> &[u8] {
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    assert_eq!(frame.len(), 4 + len, "one whole frame");
    &frame[4..]
}

/// Re-encodes a decoded response into a payload.
fn reencode_response(resp: &NetResponse) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        NetResponse::Ok {
            request_id,
            response,
        } => encode_response_ok(&mut buf, *request_id, response),
        NetResponse::Shed { request_id, reason } => {
            encode_response_shed(&mut buf, *request_id, *reason)
        }
        NetResponse::Error {
            request_id,
            message,
        } => encode_response_error(&mut buf, *request_id, message),
        NetResponse::DeadlineExceeded { request_id } => {
            encode_response_deadline(&mut buf, *request_id)
        }
    }
    payload(&buf).to_vec()
}

/// Every other value of every byte of `valid`, one change at a time.
fn single_byte_changes(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..valid.len()).flat_map(move |at| {
        (0..=255u8).filter(move |&v| v != valid[at]).map(move |v| {
            let mut changed = valid.to_vec();
            changed[at] = v;
            changed
        })
    })
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..=512),
    ) {
        // Behind each frame kind too, so the decoders parse past the
        // kind byte instead of refusing it.
        let mut inputs = vec![bytes.clone()];
        for kind in [KIND_REQUEST, KIND_RESPONSE, KIND_STATS, KIND_STATS_REPLY] {
            let mut framed = vec![kind];
            framed.extend_from_slice(&bytes);
            inputs.push(framed);
        }
        for input in &inputs {
            let _ = decode_request(input);
            let _ = decode_response(input);
            let _ = decode_stats_request(input);
            let _ = decode_stats_reply(input);
        }
    }

    #[test]
    fn requests_and_every_response_kind_round_trip(
        id in 0u64..=u64::MAX,
        model in prop::collection::vec(0usize..64, 0..40),
        tag in 0u8..3,
        a in 0u32..=u32::MAX,
        b in 0u32..=u32::MAX,
        c in 0u32..=u32::MAX,
        spikes in 0u64..=u64::MAX,
        margin in -1.0e6f32..1.0e6,
        deadline in 0u64..=u64::MAX,
        image in prop::collection::vec(-4.0f32..4.0, 0..32),
        exit in 0u8..3,
        degraded in 0u8..=1,
        shed in 0u8..=1,
        message in prop::collection::vec(0usize..64, 0..80),
    ) {
        let model = text(&model);
        let policy = policy(tag, a, b, c, spikes, margin);
        let mut buf = Vec::new();
        encode_request_with_deadline(&mut buf, id, &model, &policy, &image, deadline).unwrap();
        let got = decode_request(payload(&buf)).unwrap();
        prop_assert_eq!(got.request_id, id);
        prop_assert_eq!(got.deadline_us, deadline);
        prop_assert_eq!(&got.request.model, &model);
        prop_assert_eq!(got.request.policy, policy);
        prop_assert_eq!(&got.request.image, &image);

        let response = ok_response(a, b, spikes, margin, exit, deadline, c, degraded);
        let mut ok = Vec::new();
        encode_response_ok(&mut ok, id, &response);
        let mut shed_frame = Vec::new();
        let reason = ShedReason::from_code(shed).unwrap();
        encode_response_shed(&mut shed_frame, id, reason);
        let message = text(&message);
        let mut error = Vec::new();
        encode_response_error(&mut error, id, &message);
        let mut expired = Vec::new();
        encode_response_deadline(&mut expired, id);
        let cases = [
            (ok, NetResponse::Ok { request_id: id, response }),
            (shed_frame, NetResponse::Shed { request_id: id, reason }),
            (error, NetResponse::Error { request_id: id, message: message.clone() }),
            (expired, NetResponse::DeadlineExceeded { request_id: id }),
        ];
        for (frame, want) in cases {
            let got = decode_response(payload(&frame)).unwrap();
            prop_assert_eq!(got.request_id(), id);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(reencode_response(&got), payload(&frame).to_vec());
        }

        let mut stats = Vec::new();
        encode_stats_reply(&mut stats, 1, &message);
        prop_assert_eq!(decode_stats_reply(payload(&stats)), Ok((1, message.clone())));
    }

    #[test]
    fn single_byte_changes_error_or_reencode_exactly(
        id in 0u64..=u64::MAX,
        model in prop::collection::vec(0usize..64, 0..8),
        tag in 0u8..3,
        a in 0u32..=u32::MAX,
        b in 0u32..=u32::MAX,
        c in 0u32..=u32::MAX,
        spikes in 0u64..=u64::MAX,
        margin in -1.0e6f32..1.0e6,
        deadline in 0u64..=u64::MAX,
        image in prop::collection::vec(-4.0f32..4.0, 0..4),
        exit in 0u8..3,
        degraded in 0u8..=1,
    ) {
        let mut buf = Vec::new();
        let policy = policy(tag, a, b, c, spikes, margin);
        encode_request_with_deadline(&mut buf, id, &text(&model), &policy, &image, deadline)
            .unwrap();
        for changed in single_byte_changes(payload(&buf)) {
            if let Ok(req) = decode_request(&changed) {
                let mut again = Vec::new();
                encode_request_with_deadline(
                    &mut again,
                    req.request_id,
                    &req.request.model,
                    &req.request.policy,
                    &req.request.image,
                    req.deadline_us,
                )
                .unwrap();
                prop_assert_eq!(payload(&again), &changed[..], "request {:?}", req);
            }
        }

        let mut ok = Vec::new();
        let response = ok_response(a, b, spikes, margin, exit, deadline, c, degraded);
        encode_response_ok(&mut ok, id, &response);
        for changed in single_byte_changes(payload(&ok)) {
            if let Ok(resp) = decode_response(&changed) {
                prop_assert_eq!(reencode_response(&resp), changed.clone(), "response {:?}", resp);
            }
        }
    }
}
