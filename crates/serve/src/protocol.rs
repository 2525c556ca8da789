//! The serve wire protocol: length-prefixed binary frames carrying
//! [`SolveRequest`]s and their outcomes.
//!
//! Every frame (see [`paradmm_graph::io::read_frame`] /
//! [`paradmm_graph::io::write_frame`] for the `u32`-length transport
//! framing) starts with a 4-byte magic, a protocol version and a frame
//! kind, then the payload. All integers are little-endian; matrices
//! travel through the prox layer's [`ProxSpec`] value encoding and the
//! graph/params/store blobs reuse `paradmm_graph::io`'s existing
//! encoders, each wrapped in its own `u32` length prefix (the io
//! decoders read from the slice start and ignore trailing bytes, so
//! sub-blobs must be delimited here).
//!
//! Decoding treats the buffer as untrusted: every read is
//! bounds-checked, claimed lengths are validated against the remaining
//! bytes *before* allocation, [`ProxSpec::validate`] vets operator
//! parameters, and per-factor operator shapes are checked against the
//! decoded graph — a malformed frame yields [`WireError`], never a
//! panic in the serving process.

use std::time::Duration;

use paradmm_core::{AdmmProblem, Priority, Residuals, SolveRequest, StopReason, StoppingCriteria};
use paradmm_graph::{io, EdgeParams, FactorGraph, VarStore};
use paradmm_prox::{specs_for, ProxOp, ProxSpec};

use crate::engine::Lane;
use crate::wire::{put_blob, put_f64, put_u32, put_u64, put_u8, put_vec_f64, Reader};

/// Frame magic: "pAdS" (parADMM serve).
pub const MAGIC: [u8; 4] = *b"pAdS";
/// Protocol version; bumped on any incompatible layout change.
pub const VERSION: u32 = 1;
/// Frame kind byte for a solve request.
pub const KIND_REQUEST: u8 = 1;
/// Frame kind byte for a solve response.
pub const KIND_RESPONSE: u8 = 2;
/// Upper bound on `max_iters` accepted from the wire — a spinning
/// budget this large is a malformed request, not a workload.
pub const MAX_WIRE_ITERS: u64 = 100_000_000;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field being read.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame's version is not [`VERSION`].
    BadVersion(u32),
    /// The frame kind byte is not the expected one.
    BadKind(u8),
    /// A structurally valid frame carrying semantically invalid data.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unexpected frame kind {k}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::IoError> for WireError {
    fn from(e: io::IoError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

/// A request decoded off the wire.
pub struct DecodedRequest {
    /// Client-chosen request id, echoed back on the response.
    pub id: u64,
    /// Whether the server may seed this solve from its warm-start cache.
    pub use_cache: bool,
    /// The reconstructed request.
    pub request: SolveRequest,
}

/// What a served request produced — [`paradmm_core::SolveOutcome`] plus
/// the serving metadata (lane, cache use) the engine attaches.
#[derive(Debug, Clone)]
pub struct ServedOutcome {
    /// Final ADMM state.
    pub store: VarStore,
    /// Iterations executed.
    pub iterations: usize,
    /// Why iteration stopped.
    pub stop_reason: StopReason,
    /// Residuals at the final check (if any check ran).
    pub final_residuals: Option<Residuals>,
    /// Wall-clock from admission to completion.
    pub elapsed: Duration,
    /// Which execution lane served the request.
    pub lane: Lane,
    /// Whether the solve was seeded from the warm-start cache.
    pub warm_started: bool,
}

impl ServedOutcome {
    /// Whether the solve converged.
    pub fn converged(&self) -> bool {
        self.stop_reason == StopReason::Converged
    }
}

fn stop_reason_u8(r: StopReason) -> u8 {
    match r {
        StopReason::Converged => 0,
        StopReason::MaxIterations => 1,
    }
}

fn stop_reason_from_u8(v: u8) -> Result<StopReason, WireError> {
    match v {
        0 => Ok(StopReason::Converged),
        1 => Ok(StopReason::MaxIterations),
        _ => Err(WireError::Malformed(format!("unknown stop reason {v}"))),
    }
}

fn put_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC);
    put_u32(out, VERSION);
    put_u8(out, kind);
}

fn read_header(r: &mut Reader<'_>, expect_kind: u8) -> Result<(), WireError> {
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.u8().map_err(|_| WireError::Truncated)?;
    }
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    if kind != expect_kind {
        return Err(WireError::BadKind(kind));
    }
    Ok(())
}

fn put_spec(out: &mut Vec<u8>, spec: &ProxSpec) {
    match spec {
        ProxSpec::Zero => put_u8(out, 0),
        ProxSpec::Linear { g } => {
            put_u8(out, 1);
            put_vec_f64(out, g);
        }
        ProxSpec::Quadratic { q, g } => {
            put_u8(out, 2);
            put_vec_f64(out, q);
            put_vec_f64(out, g);
        }
        ProxSpec::Box { lo, hi } => {
            put_u8(out, 3);
            put_f64(out, *lo);
            put_f64(out, *hi);
        }
        ProxSpec::L1 { lambda } => {
            put_u8(out, 4);
            put_f64(out, *lambda);
        }
        ProxSpec::SemiLasso { lambda } => {
            put_u8(out, 5);
            put_f64(out, *lambda);
        }
        ProxSpec::Consensus => put_u8(out, 6),
        ProxSpec::AffineEquality {
            rows,
            cols,
            data,
            c,
        } => {
            put_u8(out, 7);
            put_u32(out, *rows as u32);
            put_u32(out, *cols as u32);
            put_vec_f64(out, data);
            put_vec_f64(out, c);
        }
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<ProxSpec, WireError> {
    let spec = match r.u8()? {
        0 => ProxSpec::Zero,
        1 => ProxSpec::Linear { g: r.vec_f64()? },
        2 => ProxSpec::Quadratic {
            q: r.vec_f64()?,
            g: r.vec_f64()?,
        },
        3 => ProxSpec::Box {
            lo: r.f64()?,
            hi: r.f64()?,
        },
        4 => ProxSpec::L1 { lambda: r.f64()? },
        5 => ProxSpec::SemiLasso { lambda: r.f64()? },
        6 => ProxSpec::Consensus,
        7 => ProxSpec::AffineEquality {
            rows: r.u32()? as usize,
            cols: r.u32()? as usize,
            data: r.vec_f64()?,
            c: r.vec_f64()?,
        },
        t => return Err(WireError::Malformed(format!("unknown prox tag {t}"))),
    };
    spec.validate().map_err(WireError::Malformed)?;
    Ok(spec)
}

/// The operator's expected flattened span for its factor, when the
/// spec fixes one (`None` for element-wise/span-agnostic operators).
fn spec_span(spec: &ProxSpec) -> Option<usize> {
    match spec {
        ProxSpec::Linear { g } => Some(g.len()),
        ProxSpec::Quadratic { q, .. } => Some(q.len()),
        ProxSpec::AffineEquality { cols, .. } => Some(*cols),
        _ => None,
    }
}

/// Deterministic 64-bit fingerprint of a *full* problem: the
/// [`io::problem_fingerprint`] structural base (topology + ρ/α) with
/// each factor's [`ProxSpec`] wire encoding folded in, so two problems
/// with identical structure but different objectives — the common MPC
/// pattern of one controller re-solved against new targets — get
/// distinct keys. This is the warm-start cache key; returns `None`
/// when any operator has no [`ProxSpec`] (a closure-backed operator
/// has no stable identity, so such requests are never cache-keyed).
pub fn request_fingerprint(
    graph: &FactorGraph,
    params: &EdgeParams,
    proxes: &[Box<dyn ProxOp>],
) -> Option<u64> {
    let specs = specs_for(proxes)?;
    let mut h = io::problem_fingerprint(graph, params);
    let mut buf = Vec::new();
    for spec in &specs {
        buf.clear();
        put_spec(&mut buf, spec);
        io::fingerprint_fold(&mut h, &buf);
    }
    Some(h)
}

/// Encodes `request` into a request-frame payload. Fails if any
/// proximal operator does not expose a [`ProxSpec`] value encoding
/// (closure-backed operators cannot travel over the wire).
pub fn encode_request(id: u64, request: &SolveRequest, use_cache: bool) -> Result<Vec<u8>, String> {
    let specs = specs_for(request.problem().proxes()).ok_or_else(|| {
        "request contains a proximal operator with no wire encoding (no ProxSpec)".to_string()
    })?;
    let mut out = Vec::new();
    put_header(&mut out, KIND_REQUEST);
    put_u64(&mut out, id);
    let mut flags = 0u8;
    if request.warm_start().is_some() {
        flags |= 1;
    }
    if use_cache {
        flags |= 2;
    }
    put_u8(&mut out, flags);
    put_u8(&mut out, request.priority().as_u8());
    let deadline_us = request
        .deadline()
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX - 1))
        .unwrap_or(u64::MAX);
    put_u64(&mut out, deadline_us);
    let stopping = request.stopping();
    put_u64(&mut out, stopping.max_iters as u64);
    put_u64(&mut out, stopping.check_every as u64);
    put_f64(&mut out, stopping.eps_abs);
    put_f64(&mut out, stopping.eps_rel);
    put_blob(&mut out, request.backend().to_string().as_bytes());

    let mut blob = Vec::new();
    io::encode_graph(request.problem().graph(), &mut blob);
    put_blob(&mut out, &blob);
    blob.clear();
    io::encode_params(request.problem().params(), &mut blob);
    put_blob(&mut out, &blob);

    put_u32(&mut out, specs.len() as u32);
    for spec in &specs {
        put_spec(&mut out, spec);
    }
    if let Some(ws) = request.warm_start() {
        blob.clear();
        io::encode_store(ws, &mut blob);
        put_blob(&mut out, &blob);
    }
    Ok(out)
}

/// Decodes and validates a request-frame payload.
pub fn decode_request(buf: &[u8]) -> Result<DecodedRequest, WireError> {
    let mut r = Reader::new(buf);
    read_header(&mut r, KIND_REQUEST)?;
    let id = r.u64()?;
    let flags = r.u8()?;
    if flags & !3 != 0 {
        return Err(WireError::Malformed(format!(
            "unknown flag bits {flags:#x}"
        )));
    }
    let priority = Priority::from_u8(r.u8()?)
        .ok_or_else(|| WireError::Malformed("unknown priority".to_string()))?;
    let deadline_us = r.u64()?;
    let max_iters = r.u64()?;
    if max_iters > MAX_WIRE_ITERS {
        return Err(WireError::Malformed(format!(
            "max_iters {max_iters} exceeds the wire cap {MAX_WIRE_ITERS}"
        )));
    }
    let check_every = r.u64()?;
    let stopping = StoppingCriteria {
        max_iters: max_iters as usize,
        // usize::MAX (no residual checks) must survive the u64 trip.
        check_every: usize::try_from(check_every).unwrap_or(usize::MAX),
        eps_abs: r.f64()?,
        eps_rel: r.f64()?,
    };
    let backend_str = std::str::from_utf8(r.blob()?)
        .map_err(|_| WireError::Malformed("backend spec is not UTF-8".to_string()))?;
    let backend = backend_str
        .parse()
        .map_err(|e| WireError::Malformed(format!("{e}")))?;

    let graph = io::decode_graph(r.blob()?)?;
    let params = io::decode_params(r.blob()?, &graph)?;
    let num_specs = r.u32()? as usize;
    if num_specs != graph.num_factors() {
        return Err(WireError::Malformed(format!(
            "{num_specs} prox specs for {} factors",
            graph.num_factors()
        )));
    }
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::with_capacity(num_specs);
    for a in graph.factors() {
        let spec = read_spec(&mut r)?;
        let span = graph.factor_degree(a) * graph.dims();
        if let Some(expect) = spec_span(&spec) {
            if expect != span {
                return Err(WireError::Malformed(format!(
                    "prox for factor {} spans {expect} components, factor has {span}",
                    a.idx()
                )));
            }
        }
        proxes.push(spec.build());
    }
    let warm_start = if flags & 1 != 0 {
        // decode_store validates the store's shape against the graph,
        // so the builder's shape assertions below cannot fire on
        // untrusted input.
        Some(io::decode_store(r.blob()?, &graph)?)
    } else {
        None
    };
    if r.remaining() != 0 {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after request",
            r.remaining()
        )));
    }

    let mut request = SolveRequest::new(AdmmProblem::with_params(graph, proxes, params))
        .with_stopping(stopping)
        .with_backend(backend)
        .with_priority(priority);
    if deadline_us != u64::MAX {
        request = request.with_deadline(Duration::from_micros(deadline_us));
    }
    if let Some(ws) = warm_start {
        request = request.with_warm_start(ws);
    }
    Ok(DecodedRequest {
        id,
        use_cache: flags & 2 != 0,
        request,
    })
}

/// Encodes a response-frame payload: the served outcome, or a
/// server-side error message.
pub fn encode_response(id: u64, result: &Result<ServedOutcome, String>) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, KIND_RESPONSE);
    put_u64(&mut out, id);
    match result {
        Err(message) => {
            put_u8(&mut out, 1);
            put_blob(&mut out, message.as_bytes());
        }
        Ok(outcome) => {
            put_u8(&mut out, 0);
            put_u8(&mut out, outcome.lane.as_u8());
            put_u8(&mut out, outcome.warm_started as u8);
            put_u8(&mut out, stop_reason_u8(outcome.stop_reason));
            put_u64(&mut out, outcome.iterations as u64);
            let elapsed_us = u64::try_from(outcome.elapsed.as_micros()).unwrap_or(u64::MAX);
            put_u64(&mut out, elapsed_us);
            match &outcome.final_residuals {
                Some(r) => {
                    put_u8(&mut out, 1);
                    put_f64(&mut out, r.primal);
                    put_f64(&mut out, r.dual);
                    put_f64(&mut out, r.x_norm);
                    put_f64(&mut out, r.z_norm);
                    put_f64(&mut out, r.u_norm);
                }
                None => put_u8(&mut out, 0),
            }
            let mut blob = Vec::new();
            io::encode_store(&outcome.store, &mut blob);
            put_blob(&mut out, &blob);
        }
    }
    out
}

/// Peeks the request id off a response-frame payload without decoding
/// the body — the client needs the id to look up which graph the
/// response's store belongs to.
pub fn response_id(buf: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(buf);
    read_header(&mut r, KIND_RESPONSE)?;
    r.u64()
}

/// Decodes a response-frame payload; `graph` is the graph of the
/// request this response answers (needed to validate the store blob —
/// error responses carry no store and decode without one).
pub fn decode_response(
    buf: &[u8],
    graph: Option<&FactorGraph>,
) -> Result<(u64, Result<ServedOutcome, String>), WireError> {
    let mut r = Reader::new(buf);
    read_header(&mut r, KIND_RESPONSE)?;
    let id = r.u64()?;
    match r.u8()? {
        1 => {
            let message = std::str::from_utf8(r.blob()?)
                .map_err(|_| WireError::Malformed("error message is not UTF-8".to_string()))?
                .to_string();
            Ok((id, Err(message)))
        }
        0 => {
            let lane = Lane::from_u8(r.u8()?)
                .ok_or_else(|| WireError::Malformed("unknown lane".to_string()))?;
            let warm_started = r.u8()? != 0;
            let stop_reason = stop_reason_from_u8(r.u8()?)?;
            let iterations = r.u64()? as usize;
            let elapsed = Duration::from_micros(r.u64()?);
            let final_residuals = match r.u8()? {
                0 => None,
                1 => Some(Residuals {
                    primal: r.f64()?,
                    dual: r.f64()?,
                    x_norm: r.f64()?,
                    z_norm: r.f64()?,
                    u_norm: r.f64()?,
                }),
                v => {
                    return Err(WireError::Malformed(format!(
                        "bad residual presence byte {v}"
                    )))
                }
            };
            let graph = graph.ok_or_else(|| {
                WireError::Malformed("response carries a store but no graph was supplied".into())
            })?;
            let store = io::decode_store(r.blob()?, graph)?;
            if r.remaining() != 0 {
                return Err(WireError::Malformed(format!(
                    "{} trailing bytes after response",
                    r.remaining()
                )));
            }
            Ok((
                id,
                Ok(ServedOutcome {
                    store,
                    iterations,
                    stop_reason,
                    final_residuals,
                    elapsed,
                    lane,
                    warm_started,
                }),
            ))
        }
        v => Err(WireError::Malformed(format!("bad status byte {v}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::QuadraticProx;

    fn request() -> SolveRequest {
        let mut b = GraphBuilder::new(2);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(2, 2.0, &[1.0, -1.0])),
            Box::new(paradmm_prox::BoxProx::new(-4.0, 4.0)),
        ];
        SolveRequest::new(AdmmProblem::new(b.build(), proxes, 1.5, 0.9))
            .with_stopping(StoppingCriteria {
                max_iters: 321,
                eps_abs: 1e-7,
                eps_rel: 1e-5,
                check_every: 7,
            })
            .with_backend("worksteal:3".parse().unwrap())
            .with_priority(Priority::High)
            .with_deadline(Duration::from_millis(250))
    }

    #[test]
    fn request_roundtrip_preserves_everything() {
        let req = request();
        let bytes = encode_request(42, &req, true).unwrap();
        let decoded = decode_request(&bytes).unwrap();
        assert_eq!(decoded.id, 42);
        assert!(decoded.use_cache);
        let got = decoded.request;
        assert_eq!(got.stopping(), req.stopping());
        assert_eq!(got.backend(), req.backend());
        assert_eq!(got.priority(), Priority::High);
        assert_eq!(got.deadline(), Some(Duration::from_millis(250)));
        assert_eq!(got.problem().graph().num_edges(), 2);
        // The decoded request must solve bit-identically to the original.
        let a = req.solve();
        let b = got.solve();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.store.z, b.store.z);
        assert_eq!(a.store.u, b.store.u);

        // Every backend family survives the wire, bare and counted.
        for family in paradmm_core::BACKEND_FAMILIES {
            let counted = format!("{family}:2");
            for text in [family, counted.as_str()] {
                let Ok(spec) = text.parse::<paradmm_core::BackendSpec>() else {
                    assert_eq!(text, "serial:2", "only serial takes no count");
                    continue;
                };
                let req = request().with_backend(spec);
                let bytes = encode_request(7, &req, false).unwrap();
                let got = decode_request(&bytes).unwrap().request;
                assert_eq!(got.backend(), spec, "{text}");
                assert_eq!(got.backend().to_string(), text);
            }
        }
        // The sharded executor solves a decoded request bit-identically.
        let req = request().with_backend("sharded:2".parse().unwrap());
        let got = decode_request(&encode_request(8, &req, false).unwrap())
            .unwrap()
            .request;
        let b = got.solve();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.store.z, b.store.z);
        assert_eq!(a.store.u, b.store.u);
    }

    #[test]
    fn fixed_iteration_check_every_survives_the_wire() {
        let req = SolveRequest::new(request().into_parts().problem)
            .with_stopping(StoppingCriteria::fixed_iterations(17));
        let bytes = encode_request(1, &req, false).unwrap();
        let decoded = decode_request(&bytes).unwrap();
        assert_eq!(decoded.request.stopping().check_every, usize::MAX);
        assert_eq!(decoded.request.stopping().max_iters, 17);
    }

    #[test]
    fn closure_prox_has_no_wire_encoding() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> =
            vec![Box::new(paradmm_prox::NumericProx::new(|s| s[0] * s[0]))];
        let req = SolveRequest::new(AdmmProblem::new(b.build(), proxes, 1.0, 1.0));
        assert!(encode_request(0, &req, false).is_err());
    }

    #[test]
    fn warm_start_roundtrips() {
        let req = request();
        let mut ws = VarStore::zeros(req.problem().graph());
        ws.n[0] = 0.25;
        ws.z[1] = -3.5;
        let req = req.with_warm_start(ws);
        let bytes = encode_request(9, &req, false).unwrap();
        let decoded = decode_request(&bytes).unwrap();
        let ws = decoded.request.warm_start().expect("warm start survives");
        assert_eq!(ws.n[0], 0.25);
        assert_eq!(ws.z[1], -3.5);
    }

    #[test]
    fn response_roundtrip_ok_and_error() {
        let req = request();
        let graph = req.problem().graph().clone();
        let outcome = {
            let o = req.solve();
            ServedOutcome {
                store: o.store,
                iterations: o.iterations,
                stop_reason: o.stop_reason,
                final_residuals: o.final_residuals,
                elapsed: Duration::from_micros(1234),
                lane: Lane::Batch,
                warm_started: true,
            }
        };
        let bytes = encode_response(7, &Ok(outcome.clone()));
        assert_eq!(response_id(&bytes).unwrap(), 7);
        let (id, got) = decode_response(&bytes, Some(&graph)).unwrap();
        let got = got.unwrap();
        assert_eq!(id, 7);
        assert_eq!(got.iterations, outcome.iterations);
        assert_eq!(got.stop_reason, outcome.stop_reason);
        assert_eq!(got.lane, Lane::Batch);
        assert!(got.warm_started);
        assert_eq!(got.elapsed, Duration::from_micros(1234));
        assert_eq!(got.store.z, outcome.store.z);
        assert_eq!(
            got.final_residuals.unwrap().primal,
            outcome.final_residuals.unwrap().primal
        );

        let bytes = encode_response(8, &Err("no such backend".to_string()));
        let (id, got) = decode_response(&bytes, None).unwrap();
        assert_eq!(id, 8);
        assert_eq!(got.unwrap_err(), "no such backend");
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        let req = request();
        let good = encode_request(1, &req, false).unwrap();

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            decode_request(&bad).err().unwrap(),
            WireError::BadMagic
        ));

        // Wrong version.
        let mut bad = good.clone();
        bad[4] = 0xee;
        assert!(matches!(
            decode_request(&bad).err().unwrap(),
            WireError::BadVersion(_)
        ));

        // Response frame fed to the request decoder.
        let mut bad = good.clone();
        bad[8] = KIND_RESPONSE;
        assert!(matches!(
            decode_request(&bad).err().unwrap(),
            WireError::BadKind(KIND_RESPONSE)
        ));

        // Every truncation point must error, not panic.
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "cut at {cut}");
        }

        // Trailing garbage is rejected.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            decode_request(&bad).err().unwrap(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn absurd_iteration_budget_rejected() {
        let req = request().with_stopping(StoppingCriteria {
            max_iters: (MAX_WIRE_ITERS + 1) as usize,
            ..StoppingCriteria::default()
        });
        let bytes = encode_request(1, &req, false).unwrap();
        assert!(matches!(
            decode_request(&bytes).err().unwrap(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn prox_span_mismatch_rejected() {
        // A Linear spec over the wrong span for its factor.
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![Box::new(paradmm_prox::LinearProx::new(vec![1.0]))];
        let req = SolveRequest::new(AdmmProblem::new(b.build(), proxes, 1.0, 1.0));
        let good = encode_request(1, &req, false).unwrap();
        assert!(decode_request(&good).is_ok());

        // The builder API will not construct a mismatched problem, so
        // patch the encoded bytes: the spec section sits at the end of
        // the frame (no warm start) as `count u32 | tag u8 | len u32 |
        // f64`. Grow the gradient to 2 components for a 1-span factor.
        let mut bytes = good.clone();
        let tag_pos = bytes.len() - 1 - 4 - 8;
        assert_eq!(bytes[tag_pos], 1, "expected Linear tag");
        bytes[tag_pos + 1..tag_pos + 5].copy_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&2.0f64.to_le_bytes());
        match decode_request(&bytes).err().unwrap() {
            WireError::Malformed(m) => assert!(m.contains("spans"), "{m}"),
            other => panic!("expected span mismatch, got {other:?}"),
        }
    }
}
