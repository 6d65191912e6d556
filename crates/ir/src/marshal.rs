//! Custom marshalling and object sizing.
//!
//! Remote continuation transports the live variables of a split edge from
//! the modulator's heap to the demodulator's heap. The paper implements
//! this with a *customized object serialization algorithm* rather than
//! stock Java serialization, and evaluates three costing strategies in
//! Table 1:
//!
//! 1. **full serialization** — produce the wire bytes and measure them;
//! 2. **generic size calculation** — walk the object graph computing sizes
//!    without writing bytes (fast for primitive arrays);
//! 3. **self-describing size methods** — per-class `sizeOf` functions
//!    ("compiler-generated" in the paper, registered Rust closures here)
//!    that compute the size in constant or near-constant time.
//!
//! The data-size cost of an edge is, per §4.1 of the paper, "the total
//! runtime size of the unique objects reachable from any of the variables
//! in the intersection set, plus the total number of duplicated references
//! to those unique objects" — implemented by [`calculated_size`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::heap::{ArrayData, Heap, HeapCell};
use crate::types::{ClassTable, ElemType};
use crate::value::{ObjRef, Value};
use crate::IrError;

/// Wire size of an object reference, in bytes.
pub const REF_SIZE: usize = 4;
/// Accounting size of an object header, in bytes (mirrors the paper's
/// `ObjectSize.OBJECT_HEADER_SIZE`).
pub const OBJECT_HEADER_SIZE: usize = 8;
/// Accounting size of a string header (mirrors `STRING_HEADER_SIZE`).
pub const STRING_HEADER_SIZE: usize = 24;
/// Accounting size of an array header.
pub const ARRAY_HEADER_SIZE: usize = 12;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_REF: u8 = 5;

const CELL_OBJECT: u8 = 0;
const CELL_ARR_BYTE: u8 = 1;
const CELL_ARR_INT: u8 = 2;
const CELL_ARR_FLOAT: u8 = 3;
const CELL_ARR_REF: u8 = 4;

/// A marshalled value graph: the continuation message payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Marshalled {
    bytes: Bytes,
}

impl Marshalled {
    /// Total wire size in bytes (the quantity the data-size cost model
    /// charges to the network).
    pub fn wire_size(&self) -> usize {
        self.bytes.len()
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A refcounted handle to the payload allocation: cloning the inner
    /// [`Bytes`] bumps a refcount instead of copying. The buffer is
    /// immutable for its whole life (built once by [`marshal_values`],
    /// frozen, never written again), so holders — encoded frames sitting
    /// in a retransmission window, the simulated wire, a supervisor's
    /// unacked queue — may keep the handle for as long as they like
    /// without snapshotting. This is the marshal-layer half of the
    /// zero-copy encode contract (see WIRE.md in the repo root).
    pub fn shared_bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Wraps raw bytes received from a transport.
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Self {
        Marshalled { bytes: bytes.into() }
    }
}

/// Deep-serializes `roots` (with everything reachable) from `heap`.
///
/// Shared objects are encoded once and referenced by table index, so
/// aliasing and cycles survive the round trip.
///
/// # Errors
///
/// Returns [`IrError::Marshal`] on dangling references.
pub fn marshal_values(heap: &Heap, roots: &[Value]) -> Result<Marshalled, IrError> {
    let mut table: Vec<ObjRef> = Vec::new();
    let mut index: HashMap<ObjRef, u32> = HashMap::new();

    // Pass 1: assign table slots in BFS order (`table` doubles as the
    // queue) and add up the encoded size on the way, so pass 2 writes into
    // one exact allocation instead of growing a buffer from empty.
    let mut visit = |v: &Value, table: &mut Vec<ObjRef>| -> usize {
        if let Value::Ref(r) = v {
            if let std::collections::hash_map::Entry::Vacant(e) = index.entry(*r) {
                e.insert(table.len() as u32);
                table.push(*r);
            }
        }
        encoded_len(v)
    };
    // Root count and table count, then the roots.
    let mut size = 4 + 4;
    for v in roots {
        size += visit(v, &mut table);
    }
    let mut next = 0;
    while next < table.len() {
        let cell = heap.cell(table[next]).map_err(|e| IrError::Marshal(e.to_string()))?;
        next += 1;
        // Cell kind and element count; objects also carry their class.
        size += 1 + 4;
        match cell {
            HeapCell::Object { fields, .. } => {
                size += 4;
                for f in fields {
                    size += visit(f, &mut table);
                }
            }
            HeapCell::Array(ArrayData::Ref(items)) => {
                for item in items {
                    size += visit(item, &mut table);
                }
            }
            HeapCell::Array(ArrayData::Byte(v)) => size += v.len(),
            HeapCell::Array(ArrayData::Int(v)) => size += 8 * v.len(),
            HeapCell::Array(ArrayData::Float(v)) => size += 8 * v.len(),
        }
    }

    // Pass 2: encode.
    let mut buf = BytesMut::with_capacity(size);
    buf.put_u32(roots.len() as u32);
    for v in roots {
        put_value(&mut buf, v, &index);
    }
    buf.put_u32(table.len() as u32);
    for r in &table {
        let cell = heap.cell(*r).map_err(|e| IrError::Marshal(e.to_string()))?;
        match cell {
            HeapCell::Object { class, fields } => {
                buf.put_u8(CELL_OBJECT);
                buf.put_u32(class.index() as u32);
                buf.put_u32(fields.len() as u32);
                for f in fields {
                    put_value(&mut buf, f, &index);
                }
            }
            HeapCell::Array(ArrayData::Byte(v)) => {
                buf.put_u8(CELL_ARR_BYTE);
                buf.put_u32(v.len() as u32);
                buf.put_slice(v);
            }
            HeapCell::Array(ArrayData::Int(v)) => {
                buf.put_u8(CELL_ARR_INT);
                buf.put_u32(v.len() as u32);
                put_words(&mut buf, v.iter().map(|x| x.to_be_bytes()));
            }
            HeapCell::Array(ArrayData::Float(v)) => {
                buf.put_u8(CELL_ARR_FLOAT);
                buf.put_u32(v.len() as u32);
                put_words(&mut buf, v.iter().map(|x| x.to_bits().to_be_bytes()));
            }
            HeapCell::Array(ArrayData::Ref(v)) => {
                buf.put_u8(CELL_ARR_REF);
                buf.put_u32(v.len() as u32);
                for x in v {
                    put_value(&mut buf, x, &index);
                }
            }
        }
    }
    debug_assert_eq!(buf.len(), size, "sizing pass and encoder disagree");
    Ok(Marshalled { bytes: buf.freeze() })
}

/// Bytes [`put_value`] writes for `v`.
fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 1 + 1,
        Value::Int(_) | Value::Float(_) => 1 + 8,
        Value::Str(s) => 1 + 4 + s.len(),
        Value::Ref(_) => 1 + 4,
    }
}

/// Appends a run of big-endian 8-byte words: the run is claimed once and
/// filled in place, rather than appended a bounds-checked word at a time.
fn put_words(buf: &mut BytesMut, words: impl ExactSizeIterator<Item = [u8; 8]>) {
    let start = buf.len();
    buf.resize(start + 8 * words.len(), 0);
    for (slot, word) in buf[start..].chunks_exact_mut(8).zip(words) {
        slot.copy_from_slice(&word);
    }
}

fn put_value(buf: &mut BytesMut, v: &Value, index: &HashMap<ObjRef, u32>) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64(*i);
        }
        Value::Float(x) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Ref(r) => {
            buf.put_u8(TAG_REF);
            buf.put_u32(index[r]);
        }
    }
}

/// Reconstructs a marshalled value graph inside `heap` (typically the
/// demodulator's heap), returning the root values with re-mapped
/// references.
///
/// # Errors
///
/// Returns [`IrError::Marshal`] on truncated or malformed input or unknown
/// class ids.
pub fn unmarshal_values(
    heap: &mut Heap,
    classes: &ClassTable,
    payload: &Marshalled,
) -> Result<Vec<Value>, IrError> {
    let mut buf = payload.bytes.clone();
    let short = || IrError::Marshal("truncated payload".into());

    let nroots = try_u32(&mut buf).ok_or_else(short)? as usize;
    // Every encoded root occupies at least one tag byte; reject crafted
    // counts before allocating.
    if nroots > buf.remaining() {
        return Err(short());
    }
    // Roots reference table entries we have not read yet; record raw
    // encodings and patch after cells are materialized.
    #[derive(Clone)]
    enum Raw {
        Val(Value),
        Ref(u32),
    }
    let get_raw = |buf: &mut Bytes| -> Result<Raw, IrError> {
        let tag = try_u8(buf).ok_or_else(short)?;
        Ok(match tag {
            TAG_NULL => Raw::Val(Value::Null),
            TAG_BOOL => Raw::Val(Value::Bool(try_u8(buf).ok_or_else(short)? != 0)),
            TAG_INT => Raw::Val(Value::Int(try_i64(buf).ok_or_else(short)?)),
            TAG_FLOAT => Raw::Val(Value::Float(try_f64(buf).ok_or_else(short)?)),
            TAG_STR => {
                let n = try_u32(buf).ok_or_else(short)? as usize;
                if buf.remaining() < n {
                    return Err(short());
                }
                let s = String::from_utf8(buf.copy_to_bytes(n).to_vec())
                    .map_err(|_| IrError::Marshal("invalid utf-8 string".into()))?;
                Raw::Val(Value::str(s))
            }
            TAG_REF => Raw::Ref(try_u32(buf).ok_or_else(short)?),
            other => return Err(IrError::Marshal(format!("unknown value tag {other}"))),
        })
    };

    let mut raw_roots = Vec::with_capacity(nroots);
    for _ in 0..nroots {
        raw_roots.push(get_raw(&mut buf)?);
    }

    let ncells = try_u32(&mut buf).ok_or_else(short)? as usize;
    if ncells > buf.remaining() {
        return Err(short());
    }
    // Materialize placeholder cells first so references can be patched.
    let mut new_refs: Vec<ObjRef> = Vec::with_capacity(ncells);
    #[allow(clippy::type_complexity)]
    let mut pending: Vec<(ObjRef, Vec<Raw>, bool)> = Vec::new(); // (cell, raw values, is_object)

    for _ in 0..ncells {
        let kind = try_u8(&mut buf).ok_or_else(short)?;
        match kind {
            CELL_OBJECT => {
                let class_idx = try_u32(&mut buf).ok_or_else(short)? as usize;
                if class_idx >= classes.len() {
                    return Err(IrError::Marshal(format!("unknown class id {class_idx}")));
                }
                let class = classes.iter().nth(class_idx).map(|(id, _)| id).ok_or_else(short)?;
                let nfields = try_u32(&mut buf).ok_or_else(short)? as usize;
                if nfields > buf.remaining() {
                    return Err(short());
                }
                let mut raws = Vec::with_capacity(nfields);
                for _ in 0..nfields {
                    raws.push(get_raw(&mut buf)?);
                }
                let r = heap.alloc_object(classes, class);
                pending.push((r, raws, true));
                new_refs.push(r);
            }
            CELL_ARR_BYTE => {
                let n = try_u32(&mut buf).ok_or_else(short)? as usize;
                if buf.remaining() < n {
                    return Err(short());
                }
                let data = buf.copy_to_bytes(n).to_vec();
                new_refs.push(heap.alloc_array_from(ArrayData::Byte(data)));
            }
            CELL_ARR_INT => {
                let n = try_u32(&mut buf).ok_or_else(short)? as usize;
                let data = take_words(&mut buf, n, i64::from_be_bytes).ok_or_else(short)?;
                new_refs.push(heap.alloc_array_from(ArrayData::Int(data)));
            }
            CELL_ARR_FLOAT => {
                let n = try_u32(&mut buf).ok_or_else(short)? as usize;
                let data = take_words(&mut buf, n, |w| f64::from_bits(u64::from_be_bytes(w)))
                    .ok_or_else(short)?;
                new_refs.push(heap.alloc_array_from(ArrayData::Float(data)));
            }
            CELL_ARR_REF => {
                let n = try_u32(&mut buf).ok_or_else(short)? as usize;
                if n > buf.remaining() {
                    return Err(short());
                }
                let mut raws = Vec::with_capacity(n);
                for _ in 0..n {
                    raws.push(get_raw(&mut buf)?);
                }
                let r = heap.alloc_array(ElemType::Ref, raws.len());
                pending.push((r, raws, false));
                new_refs.push(r);
            }
            other => return Err(IrError::Marshal(format!("unknown cell kind {other}"))),
        }
    }

    let resolve = |raw: &Raw, new_refs: &[ObjRef]| -> Result<Value, IrError> {
        Ok(match raw {
            Raw::Val(v) => v.clone(),
            Raw::Ref(i) => Value::Ref(
                *new_refs
                    .get(*i as usize)
                    .ok_or_else(|| IrError::Marshal(format!("bad table index {i}")))?,
            ),
        })
    };

    for (cell, raws, is_object) in &pending {
        if *is_object {
            for (fi, raw) in raws.iter().enumerate() {
                let v = resolve(raw, &new_refs)?;
                heap.set_field(*cell, crate::types::FieldId(fi as u32), v)?;
            }
        } else {
            for (i, raw) in raws.iter().enumerate() {
                let v = resolve(raw, &new_refs)?;
                heap.array_set(*cell, i as i64, v)?;
            }
        }
    }

    raw_roots.iter().map(|r| resolve(r, &new_refs)).collect()
}

fn try_u8(buf: &mut Bytes) -> Option<u8> {
    (buf.remaining() >= 1).then(|| buf.get_u8())
}
fn try_u32(buf: &mut Bytes) -> Option<u32> {
    (buf.remaining() >= 4).then(|| buf.get_u32())
}
fn try_i64(buf: &mut Bytes) -> Option<i64> {
    (buf.remaining() >= 8).then(|| buf.get_i64())
}
fn try_f64(buf: &mut Bytes) -> Option<f64> {
    (buf.remaining() >= 8).then(|| buf.get_f64())
}

/// Decodes a run of `n` big-endian 8-byte words off the front of `buf`:
/// one length check for the run, made before anything is allocated for
/// it, then one exactly-sized allocation filled in a single pass.
fn take_words<T>(buf: &mut Bytes, n: usize, word: impl Fn([u8; 8]) -> T) -> Option<Vec<T>> {
    let len = n.checked_mul(8).filter(|len| *len <= buf.remaining())?;
    let out = buf.chunk()[..len]
        .chunks_exact(8)
        .map(|raw| word(raw.try_into().expect("chunks_exact(8) yields 8 bytes")))
        .collect();
    buf.advance(len);
    Some(out)
}

/// Size of a scalar value in the accounting model.
fn scalar_size(v: &Value) -> usize {
    match v {
        Value::Null => REF_SIZE,
        Value::Bool(_) => 1,
        Value::Int(_) => 8,
        Value::Float(_) => 8,
        Value::Str(s) => STRING_HEADER_SIZE + s.len(),
        Value::Ref(_) => REF_SIZE,
    }
}

/// Generic size calculation: walks the reachable graph once, counting the
/// size of each *unique* object plus [`REF_SIZE`] for every duplicated
/// reference — the §4.1 definition of the data-size cost.
///
/// No bytes are produced, which is why this is faster than
/// [`marshal_values`] for primitive arrays (Table 1's "size calculation
/// cost" column).
///
/// # Errors
///
/// Returns [`IrError::Marshal`] on dangling references.
pub fn calculated_size(heap: &Heap, roots: &[Value]) -> Result<usize, IrError> {
    let mut seen: HashMap<ObjRef, ()> = HashMap::new();
    let mut total = 0usize;
    let mut stack: Vec<Value> = roots.to_vec();
    // Roots themselves count as scalar slots.
    for v in roots {
        if !matches!(v, Value::Ref(_)) {
            total += scalar_size(v);
        }
    }
    while let Some(v) = stack.pop() {
        let r = match v {
            Value::Ref(r) => r,
            _ => continue,
        };
        if seen.contains_key(&r) {
            // Duplicated reference: count the reference itself.
            total += REF_SIZE;
            continue;
        }
        seen.insert(r, ());
        total += REF_SIZE;
        match heap.cell(r).map_err(|e| IrError::Marshal(e.to_string()))? {
            HeapCell::Object { fields, .. } => {
                total += OBJECT_HEADER_SIZE;
                for f in fields {
                    match f {
                        Value::Ref(_) => stack.push(f.clone()),
                        other => total += scalar_size(other),
                    }
                }
            }
            HeapCell::Array(a) => {
                total += ARRAY_HEADER_SIZE;
                match a {
                    ArrayData::Byte(v) => total += v.len(),
                    ArrayData::Int(v) => total += v.len() * 8,
                    ArrayData::Float(v) => total += v.len() * 8,
                    ArrayData::Ref(items) => {
                        for item in items {
                            match item {
                                Value::Ref(_) => stack.push(item.clone()),
                                other => total += scalar_size(other),
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(total)
}

/// Generic size calculation through *reflective* field access: for every
/// object field, the walker looks the field up by name in the class
/// metadata (string hash) and materializes a boxed descriptor — modelling
/// the "costly reflection-based object serialization" the paper's
/// compiler-generated `sizeOf` methods avoid. Sizes returned are identical
/// to [`calculated_size`]; only the access path (and hence the cost)
/// differs.
///
/// # Errors
///
/// Returns [`IrError::Marshal`] on dangling references.
pub fn reflective_size(
    heap: &Heap,
    classes: &ClassTable,
    roots: &[Value],
) -> Result<usize, IrError> {
    let mut seen: HashMap<ObjRef, ()> = HashMap::new();
    let mut total = 0usize;
    let mut stack: Vec<Value> = roots.to_vec();
    for v in roots {
        if !matches!(v, Value::Ref(_)) {
            total += scalar_size(v);
        }
    }
    while let Some(v) = stack.pop() {
        let r = match v {
            Value::Ref(r) => r,
            _ => continue,
        };
        if seen.contains_key(&r) {
            total += REF_SIZE;
            continue;
        }
        seen.insert(r, ());
        total += REF_SIZE;
        match heap.cell(r).map_err(|e| IrError::Marshal(e.to_string()))? {
            HeapCell::Object { class, fields } => {
                total += OBJECT_HEADER_SIZE;
                let decl = classes.decl(*class);
                // Reflection analogue: resolve every field by *name*
                // through the metadata tables, building a transient
                // descriptor per field (name string + boxed kind), instead
                // of iterating the slot vector directly.
                for fd in &decl.fields {
                    let field = decl
                        .field(&fd.name)
                        .ok_or_else(|| IrError::Marshal(format!("lost field {}", fd.name)))?;
                    let descriptor = format!("{}.{}:{}", decl.name, fd.name, fd.ty);
                    // The descriptor plays the role of a
                    // java.lang.reflect.Field handle.
                    std::hint::black_box(&descriptor);
                    let value = fields
                        .get(field.index())
                        .ok_or_else(|| IrError::Marshal("missing slot".into()))?;
                    match value {
                        Value::Ref(_) => stack.push(value.clone()),
                        other => total += scalar_size(other),
                    }
                }
            }
            HeapCell::Array(a) => {
                total += ARRAY_HEADER_SIZE;
                match a {
                    ArrayData::Byte(v) => {
                        // Reflection-style element access: one boxed read
                        // per element.
                        for b in v {
                            total += std::hint::black_box(Value::Int(i64::from(*b)))
                                .as_int("elem")
                                .map(|_| 1)
                                .unwrap_or(1);
                        }
                    }
                    ArrayData::Int(v) => {
                        for x in v {
                            total += std::hint::black_box(Value::Int(*x))
                                .as_int("elem")
                                .map(|_| 8)
                                .unwrap_or(8);
                        }
                    }
                    ArrayData::Float(v) => {
                        for x in v {
                            total += std::hint::black_box(Value::Float(*x))
                                .as_float("elem")
                                .map(|_| 8)
                                .unwrap_or(8);
                        }
                    }
                    ArrayData::Ref(items) => {
                        for item in items {
                            match item {
                                Value::Ref(_) => stack.push(item.clone()),
                                other => total += scalar_size(other),
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(total)
}

/// Size reported by actually serializing (Table 1's "serialized size" and
/// "serialization cost" columns).
///
/// # Errors
///
/// Propagates [`marshal_values`] errors.
pub fn serialized_size(heap: &Heap, roots: &[Value]) -> Result<usize, IrError> {
    Ok(marshal_values(heap, roots)?.wire_size())
}

/// A per-class self-describing size function — the Rust analogue of the
/// paper's compiler-generated `sizeOf` methods (Appendix B).
pub type SelfSizeFn = Arc<dyn Fn(&Heap, ObjRef) -> Result<usize, IrError> + Send + Sync>;

/// Registry of self-describing size methods, keyed by class name.
#[derive(Clone, Default)]
pub struct SelfSizerRegistry {
    map: HashMap<String, SelfSizeFn>,
}

impl std::fmt::Debug for SelfSizerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.map.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("SelfSizerRegistry").field("classes", &names).finish()
    }
}

impl SelfSizerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a size method for `class_name`.
    pub fn register(
        &mut self,
        class_name: impl Into<String>,
        f: impl Fn(&Heap, ObjRef) -> Result<usize, IrError> + Send + Sync + 'static,
    ) {
        self.map.insert(class_name.into(), Arc::new(f));
    }

    /// Whether `class_name` has a registered sizer.
    pub fn contains(&self, class_name: &str) -> bool {
        self.map.contains_key(class_name)
    }

    /// Computes the size of `root` using the self-describing fast path.
    ///
    /// Falls back to [`calculated_size`] when the class (or a non-object
    /// root) has no registered sizer, mirroring the paper where
    /// `JECho.getSize` dispatches to `sizeOf` only for `SelfSizedObject`s.
    ///
    /// # Errors
    ///
    /// Propagates sizer or walk errors.
    pub fn size_of(
        &self,
        heap: &Heap,
        classes: &ClassTable,
        root: &Value,
    ) -> Result<usize, IrError> {
        match root {
            Value::Ref(r) => {
                if let Some(class) = heap.class_of(*r)? {
                    let name = &classes.decl(class).name;
                    if let Some(f) = self.map.get(name) {
                        return f(heap, *r);
                    }
                }
                calculated_size(heap, std::slice::from_ref(root))
            }
            other => Ok(scalar_size(other)),
        }
    }
}

/// Structure-sensitive digest of values: identical object graphs produce
/// identical digests even across different heaps (reference identity is
/// replaced by traversal order). Used to compare native-call traces in
/// equivalence tests.
///
/// # Errors
///
/// Returns [`IrError::Marshal`] on dangling references.
pub fn deep_digest_many(heap: &Heap, values: &[Value]) -> Result<String, IrError> {
    let mut out = String::new();
    let mut seen: HashMap<ObjRef, usize> = HashMap::new();
    for v in values {
        digest_value(heap, v, &mut seen, &mut out)?;
        out.push(';');
    }
    Ok(out)
}

fn digest_value(
    heap: &Heap,
    v: &Value,
    seen: &mut HashMap<ObjRef, usize>,
    out: &mut String,
) -> Result<(), IrError> {
    match v {
        Value::Null => out.push('N'),
        Value::Bool(b) => {
            let _ = write!(out, "b{}", u8::from(*b));
        }
        Value::Int(i) => {
            let _ = write!(out, "i{i}");
        }
        Value::Float(x) => {
            let _ = write!(out, "f{x}");
        }
        Value::Str(s) => {
            let _ = write!(out, "s{:?}", s);
        }
        Value::Ref(r) => {
            if let Some(idx) = seen.get(r) {
                let _ = write!(out, "^{idx}");
                return Ok(());
            }
            let idx = seen.len();
            seen.insert(*r, idx);
            match heap.cell(*r).map_err(|e| IrError::Marshal(e.to_string()))? {
                HeapCell::Object { class, fields } => {
                    let _ = write!(out, "O{}(", class.index());
                    for f in fields {
                        digest_value(heap, f, seen, out)?;
                        out.push(',');
                    }
                    out.push(')');
                }
                HeapCell::Array(a) => match a {
                    ArrayData::Byte(v) => {
                        let _ = write!(out, "AB{}[", v.len());
                        // Hash long arrays instead of printing every byte.
                        let mut h: u64 = 1469598103934665603;
                        for b in v {
                            h = (h ^ u64::from(*b)).wrapping_mul(1099511628211);
                        }
                        let _ = write!(out, "{h:x}]");
                    }
                    ArrayData::Int(v) => {
                        let _ = write!(out, "AI{}[", v.len());
                        let mut h: u64 = 1469598103934665603;
                        for x in v {
                            h = (h ^ (*x as u64)).wrapping_mul(1099511628211);
                        }
                        let _ = write!(out, "{h:x}]");
                    }
                    ArrayData::Float(v) => {
                        let _ = write!(out, "AF{}[", v.len());
                        let mut h: u64 = 1469598103934665603;
                        for x in v {
                            h = (h ^ x.to_bits()).wrapping_mul(1099511628211);
                        }
                        let _ = write!(out, "{h:x}]");
                    }
                    ArrayData::Ref(items) => {
                        let _ = write!(out, "AR{}[", items.len());
                        for item in items {
                            digest_value(heap, item, seen, out)?;
                            out.push(',');
                        }
                        out.push(']');
                    }
                },
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClassDecl, FieldDecl, FieldType};

    fn setup() -> (ClassTable, crate::types::ClassId) {
        let mut classes = ClassTable::new();
        let node = classes
            .declare(ClassDecl::new(
                "Node",
                vec![
                    FieldDecl { name: "value".into(), ty: FieldType::Int },
                    FieldDecl { name: "next".into(), ty: FieldType::Ref },
                ],
            ))
            .unwrap();
        (classes, node)
    }

    #[test]
    fn round_trip_scalars() {
        let (classes, _) = setup();
        let heap = Heap::new();
        let roots = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::str("hello"),
        ];
        let m = marshal_values(&heap, &roots).unwrap();
        let mut heap2 = Heap::new();
        let back = unmarshal_values(&mut heap2, &classes, &m).unwrap();
        assert_eq!(back, roots);
    }

    #[test]
    fn round_trip_object_graph_with_sharing() {
        let (classes, node) = setup();
        let mut heap = Heap::new();
        let shared = heap.alloc_object(&classes, node);
        heap.set_field(shared, crate::types::FieldId(0), Value::Int(42)).unwrap();
        let a = heap.alloc_object(&classes, node);
        let b = heap.alloc_object(&classes, node);
        heap.set_field(a, crate::types::FieldId(1), Value::Ref(shared)).unwrap();
        heap.set_field(b, crate::types::FieldId(1), Value::Ref(shared)).unwrap();

        let m = marshal_values(&heap, &[Value::Ref(a), Value::Ref(b)]).unwrap();
        let mut heap2 = Heap::new();
        let back = unmarshal_values(&mut heap2, &classes, &m).unwrap();
        let (ra, rb) = match (&back[0], &back[1]) {
            (Value::Ref(x), Value::Ref(y)) => (*x, *y),
            other => panic!("expected refs, got {other:?}"),
        };
        // Sharing must be preserved: both `next` fields point to the SAME cell.
        let na = heap2.field(ra, crate::types::FieldId(1)).unwrap();
        let nb = heap2.field(rb, crate::types::FieldId(1)).unwrap();
        assert_eq!(na, nb);
        if let Value::Ref(s) = na {
            assert_eq!(heap2.field(s, crate::types::FieldId(0)).unwrap(), Value::Int(42));
        } else {
            panic!("expected shared ref");
        }
    }

    #[test]
    fn round_trip_cycle() {
        let (classes, node) = setup();
        let mut heap = Heap::new();
        let a = heap.alloc_object(&classes, node);
        let b = heap.alloc_object(&classes, node);
        heap.set_field(a, crate::types::FieldId(1), Value::Ref(b)).unwrap();
        heap.set_field(b, crate::types::FieldId(1), Value::Ref(a)).unwrap();

        let m = marshal_values(&heap, &[Value::Ref(a)]).unwrap();
        let mut heap2 = Heap::new();
        let back = unmarshal_values(&mut heap2, &classes, &m).unwrap();
        let ra = back[0].as_ref("a").unwrap();
        let rb = heap2.field(ra, crate::types::FieldId(1)).unwrap().as_ref("b").unwrap();
        let ra2 = heap2.field(rb, crate::types::FieldId(1)).unwrap().as_ref("a2").unwrap();
        assert_eq!(ra, ra2, "cycle must close");
    }

    #[test]
    fn round_trip_arrays() {
        let (classes, _) = setup();
        let mut heap = Heap::new();
        let bytes = heap.alloc_array_from(ArrayData::Byte(vec![1, 2, 3]));
        let ints = heap.alloc_array_from(ArrayData::Int(vec![-1, 9]));
        let floats = heap.alloc_array_from(ArrayData::Float(vec![0.5]));
        let refs = heap.alloc_array_from(ArrayData::Ref(vec![
            Value::Ref(bytes),
            Value::Int(4),
            Value::Null,
        ]));
        let m = marshal_values(&heap, &[Value::Ref(refs), Value::Ref(ints), Value::Ref(floats)])
            .unwrap();
        let mut heap2 = Heap::new();
        let back = unmarshal_values(&mut heap2, &classes, &m).unwrap();
        let rr = back[0].as_ref("refs").unwrap();
        assert_eq!(heap2.array_get(rr, 1).unwrap(), Value::Int(4));
        let inner = heap2.array_get(rr, 0).unwrap().as_ref("bytes").unwrap();
        assert_eq!(heap2.array_get(inner, 2).unwrap(), Value::Int(3));
    }

    #[test]
    fn truncated_payload_is_error() {
        let (classes, node) = setup();
        let mut heap = Heap::new();
        let a = heap.alloc_object(&classes, node);
        let m = marshal_values(&heap, &[Value::Ref(a)]).unwrap();
        let cut = Marshalled::from_bytes(m.as_bytes()[..m.wire_size() - 3].to_vec());
        let mut heap2 = Heap::new();
        assert!(matches!(unmarshal_values(&mut heap2, &classes, &cut), Err(IrError::Marshal(_))));
    }

    #[test]
    fn calculated_size_counts_unique_plus_duplicates() {
        let (classes, node) = setup();
        let mut heap = Heap::new();
        let shared = heap.alloc_object(&classes, node);
        // Two roots to the same object: one full size + one duplicate ref.
        let one = calculated_size(&heap, &[Value::Ref(shared)]).unwrap();
        let two = calculated_size(&heap, &[Value::Ref(shared), Value::Ref(shared)]).unwrap();
        assert_eq!(two, one + REF_SIZE);
    }

    #[test]
    fn calculated_size_tracks_array_payload() {
        let mut heap = Heap::new();
        let small = heap.alloc_array_from(ArrayData::Byte(vec![0; 10]));
        let big = heap.alloc_array_from(ArrayData::Byte(vec![0; 1000]));
        let s = calculated_size(&heap, &[Value::Ref(small)]).unwrap();
        let b = calculated_size(&heap, &[Value::Ref(big)]).unwrap();
        assert_eq!(b - s, 990);
    }

    #[test]
    fn self_sizer_fast_path_and_fallback() {
        let (classes, node) = setup();
        let mut heap = Heap::new();
        let a = heap.alloc_object(&classes, node);
        let mut reg = SelfSizerRegistry::new();
        reg.register("Node", |_, _| Ok(123));
        assert_eq!(reg.size_of(&heap, &classes, &Value::Ref(a)).unwrap(), 123);
        // Fallback for scalars and unregistered classes.
        assert_eq!(reg.size_of(&heap, &classes, &Value::Int(1)).unwrap(), 8);
        let arr = heap.alloc_array_from(ArrayData::Byte(vec![0; 8]));
        let generic = calculated_size(&heap, &[Value::Ref(arr)]).unwrap();
        assert_eq!(reg.size_of(&heap, &classes, &Value::Ref(arr)).unwrap(), generic);
    }

    #[test]
    fn digest_is_heap_independent() {
        let (classes, node) = setup();
        let mut h1 = Heap::new();
        // Offset the second heap so raw ObjRef values differ.
        let mut h2 = Heap::new();
        let _pad = h2.alloc_array(ElemType::Byte, 1);

        let mk = |h: &mut Heap| {
            let n = h.alloc_object(&classes, node);
            h.set_field(n, crate::types::FieldId(0), Value::Int(5)).unwrap();
            Value::Ref(n)
        };
        let v1 = mk(&mut h1);
        let v2 = mk(&mut h2);
        assert_eq!(deep_digest_many(&h1, &[v1]).unwrap(), deep_digest_many(&h2, &[v2]).unwrap());
    }

    #[test]
    fn digest_distinguishes_content() {
        let mut heap = Heap::new();
        let a = heap.alloc_array_from(ArrayData::Int(vec![1, 2, 3]));
        let b = heap.alloc_array_from(ArrayData::Int(vec![1, 2, 4]));
        assert_ne!(
            deep_digest_many(&heap, &[Value::Ref(a)]).unwrap(),
            deep_digest_many(&heap, &[Value::Ref(b)]).unwrap()
        );
    }

    #[test]
    fn reflective_size_equals_calculated() {
        let (classes, node) = setup();
        let mut heap = Heap::new();
        let shared = heap.alloc_object(&classes, node);
        let a = heap.alloc_object(&classes, node);
        heap.set_field(a, crate::types::FieldId(1), Value::Ref(shared)).unwrap();
        let arr = heap.alloc_array_from(ArrayData::Int(vec![5; 64]));
        heap.set_field(shared, crate::types::FieldId(1), Value::Ref(arr)).unwrap();
        let roots = [Value::Ref(a), Value::Ref(shared)];
        assert_eq!(
            reflective_size(&heap, &classes, &roots).unwrap(),
            calculated_size(&heap, &roots).unwrap()
        );
    }

    #[test]
    fn serialized_size_close_to_calculated() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array_from(ArrayData::Int(vec![7; 100]));
        let ser = serialized_size(&heap, &[Value::Ref(arr)]).unwrap();
        let calc = calculated_size(&heap, &[Value::Ref(arr)]).unwrap();
        // Both are ~800 bytes of payload plus small headers.
        assert!((ser as i64 - calc as i64).abs() < 64, "{ser} vs {calc}");
    }
}
