//! Remote Continuation messages.
//!
//! "At the modulator side, when the split flag of this PSE is set, the
//! continuation code packs live variables of the PSE ... along with the
//! unique ID for the PSE into a continuation message" (§2.4). The message
//! is self-contained: the demodulator needs only the shared handler
//! analysis to restore state and jump to the right instruction.
//!
//! Packing is the *only* serialization point: `pack` marshals the `INTER`
//! live set once into an immutable, refcounted buffer
//! ([`Marshalled`]), and every downstream holder — the wire envelope, a
//! retransmission window, the simulated link — shares that buffer via
//! [`Marshalled::shared_bytes`] instead of copying it. Frame encoders
//! splice it into the byte stream as a borrowed scatter-gather segment
//! (see `EncodedFrame` in the jecho crate and WIRE.md in the repo root).

use mpart_analysis::PseInfo;
use mpart_ir::heap::Heap;
use mpart_ir::marshal::{marshal_values, unmarshal_values, Marshalled};
use mpart_ir::types::ClassTable;
use mpart_ir::{IrError, Value};

use crate::PseId;

/// Wire overhead of a continuation message beyond its payload: the PSE id
/// and a small header. Charged by the data-size accounting.
pub const CONTINUATION_HEADER_BYTES: usize = 16;

/// A packed remote continuation: "resume handler `H` at split point `pse`
/// with these live variables".
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuationMessage {
    /// The split point's id in the handler's PSE table.
    pub pse: PseId,
    /// Marshalled live variables (the `INTER` set of the split edge, in
    /// sorted variable order).
    pub payload: Marshalled,
    /// Work units the modulator spent before splitting (profiling data
    /// piggy-backed on the continuation, as the paper's instrumentation
    /// does).
    pub mod_work: u64,
    /// The plan generation this message was modulated under (see
    /// [`PartitionPlan::epoch`](crate::plan::PartitionPlan::epoch)). The
    /// demodulator rejects messages older than its retained plan history
    /// with [`IrError::StalePlan`].
    pub epoch: u64,
}

impl ContinuationMessage {
    /// Packs the live variables of `pse` out of the modulator's
    /// environment and heap.
    ///
    /// The returned message owns the payload's only serialization: the
    /// marshalled bytes are frozen here and never copied again on the
    /// send path (clones of this message, and the frames encoded from it,
    /// share the buffer by refcount).
    ///
    /// # Errors
    ///
    /// Propagates marshalling failures.
    pub fn pack(
        pse_id: PseId,
        pse: &PseInfo,
        env: &[Value],
        heap: &Heap,
        mod_work: u64,
        epoch: u64,
    ) -> Result<Self, IrError> {
        let roots: Vec<Value> = pse.inter.iter().map(|v| env[v.index()].clone()).collect();
        let payload = marshal_values(heap, &roots)?;
        Ok(ContinuationMessage { pse: pse_id, payload, mod_work, epoch })
    }

    /// Unpacks the live variables into the demodulator's heap, returning a
    /// full variable environment for `locals` slots (non-live slots are
    /// `Null`, matching fresh-frame semantics).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] if the payload does not match the
    /// PSE's `INTER` arity, plus any unmarshalling failure.
    pub fn unpack(
        &self,
        pse: &PseInfo,
        locals: usize,
        heap: &mut Heap,
        classes: &ClassTable,
    ) -> Result<Vec<Value>, IrError> {
        let roots = unmarshal_values(heap, classes, &self.payload)?;
        if roots.len() != pse.inter.len() {
            return Err(IrError::Continuation(format!(
                "payload carries {} values but PSE {} expects {}",
                roots.len(),
                self.pse,
                pse.inter.len()
            )));
        }
        let mut env = vec![Value::Null; locals];
        for (var, value) in pse.inter.iter().zip(roots) {
            if var.index() >= locals {
                return Err(IrError::Continuation(format!(
                    "live variable {var} out of range for {locals} locals"
                )));
            }
            env[var.index()] = value;
        }
        Ok(env)
    }

    /// Total bytes this message puts on the wire.
    pub fn wire_size(&self) -> usize {
        self.payload.wire_size() + CONTINUATION_HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_analysis::{analyze, Edge};
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;

    fn setup() -> (mpart_ir::Program, mpart_analysis::HandlerAnalysis) {
        let src = r#"
            class Payload { size: int, data: ref }
            fn f(p) {
                q = (Payload) p
                d = q.data
                native out(d)
                return
            }
        "#;
        let program = parse_program(src).unwrap();
        let model = DataSizeModel::new();
        let ha = analyze(&program, "f", &model).unwrap();
        (program, ha)
    }

    #[test]
    fn pack_unpack_round_trip() {
        let (program, ha) = setup();
        let f = program.function("f").unwrap();
        // Find the PSE after `d = q.data` (edge (1,2)) carrying {d}.
        let (pse_id, pse) = ha
            .pses()
            .iter()
            .enumerate()
            .find(|(_, p)| p.edge == Edge::new(1, 2))
            .expect("post-field-load PSE");

        let mut sender_heap = Heap::new();
        let arr = sender_heap.alloc_array(mpart_ir::types::ElemType::Byte, 5);
        sender_heap.array_set(arr, 3, Value::Int(9)).unwrap();
        let mut env = vec![Value::Null; f.locals];
        let d = f.var_by_name("d").unwrap();
        env[d.index()] = Value::Ref(arr);

        let msg = ContinuationMessage::pack(pse_id, pse, &env, &sender_heap, 7, 3).unwrap();
        assert_eq!(msg.pse, pse_id);
        assert_eq!(msg.mod_work, 7);
        assert_eq!(msg.epoch, 3);
        assert!(msg.wire_size() > CONTINUATION_HEADER_BYTES);

        let mut recv_heap = Heap::new();
        let env2 = msg.unpack(pse, f.locals, &mut recv_heap, &program.classes).unwrap();
        let d2 = env2[d.index()].as_ref("d").unwrap();
        assert_eq!(recv_heap.array_get(d2, 3).unwrap(), Value::Int(9));
        // Non-live slots are Null.
        let q = f.var_by_name("q").unwrap();
        assert_eq!(env2[q.index()], Value::Null);
    }

    #[test]
    fn unpack_arity_mismatch_rejected() {
        let (program, ha) = setup();
        let f = program.function("f").unwrap();
        let (pse_id, pse) =
            ha.pses().iter().enumerate().find(|(_, p)| !p.inter.is_empty()).unwrap();
        // Craft a payload with the wrong number of roots.
        let heap = Heap::new();
        let bogus = marshal_values(&heap, &[]).unwrap();
        let msg = ContinuationMessage { pse: pse_id, payload: bogus, mod_work: 0, epoch: 0 };
        let mut recv_heap = Heap::new();
        let err = msg.unpack(pse, f.locals, &mut recv_heap, &program.classes).unwrap_err();
        assert!(matches!(err, IrError::Continuation(_)), "{err}");
    }
}
