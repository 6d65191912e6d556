//! The object heap: class instances and arrays.
//!
//! Each side of a partitioned method (modulator in the sender, demodulator
//! in the receiver) owns its own `Heap`; remote continuation deep-copies the
//! live subgraph from one heap to the other via [`crate::marshal`].

use std::fmt;

use crate::types::{ClassId, ClassTable, ElemType, FieldId};
use crate::value::{ObjRef, Value};
use crate::IrError;

/// Payload of an array on the heap.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    /// Packed byte array.
    Byte(Vec<u8>),
    /// Packed int array.
    Int(Vec<i64>),
    /// Packed float array.
    Float(Vec<f64>),
    /// Array of arbitrary values (including references).
    Ref(Vec<Value>),
}

impl ArrayData {
    /// Allocates a zero-initialized array of `len` elements.
    pub fn zeroed(elem: ElemType, len: usize) -> Self {
        match elem {
            ElemType::Byte => ArrayData::Byte(vec![0; len]),
            ElemType::Int => ArrayData::Int(vec![0; len]),
            ElemType::Float => ArrayData::Float(vec![0.0; len]),
            ElemType::Ref => ArrayData::Ref(vec![Value::Null; len]),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Byte(v) => v.len(),
            ArrayData::Int(v) => v.len(),
            ArrayData::Float(v) => v.len(),
            ArrayData::Ref(v) => v.len(),
        }
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type tag.
    pub fn elem_type(&self) -> ElemType {
        match self {
            ArrayData::Byte(_) => ElemType::Byte,
            ArrayData::Int(_) => ElemType::Int,
            ArrayData::Float(_) => ElemType::Float,
            ArrayData::Ref(_) => ElemType::Ref,
        }
    }

    /// Reads element `index`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Bounds`] if `index` is negative or past the end.
    pub fn get(&self, index: i64) -> Result<Value, IrError> {
        let i = self.check(index)?;
        Ok(match self {
            ArrayData::Byte(v) => Value::Int(i64::from(v[i])),
            ArrayData::Int(v) => Value::Int(v[i]),
            ArrayData::Float(v) => Value::Float(v[i]),
            ArrayData::Ref(v) => v[i].clone(),
        })
    }

    /// Writes element `index`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Bounds`] for a bad index and
    /// [`IrError::Type`] if `value` does not fit the element type
    /// (byte stores are truncated like Java byte casts).
    pub fn set(&mut self, index: i64, value: Value) -> Result<(), IrError> {
        let i = self.check(index)?;
        match self {
            ArrayData::Byte(v) => v[i] = value.as_int("byte array store")? as u8,
            ArrayData::Int(v) => v[i] = value.as_int("int array store")?,
            ArrayData::Float(v) => v[i] = value.as_float("float array store")?,
            ArrayData::Ref(v) => v[i] = value,
        }
        Ok(())
    }

    fn check(&self, index: i64) -> Result<usize, IrError> {
        check_index(index, self.len())
    }
}

#[inline]
fn check_index(index: i64, len: usize) -> Result<usize, IrError> {
    if index < 0 || index as usize >= len {
        Err(IrError::Bounds { index, len })
    } else {
        Ok(index as usize)
    }
}

/// A heap cell: either a class instance or an array.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapCell {
    /// Instance of a declared class, with one value per declared field.
    Object {
        /// Declaring class.
        class: ClassId,
        /// Field values, parallel to the class's field declarations.
        fields: Vec<Value>,
    },
    /// An array.
    Array(ArrayData),
}

/// A growable object heap with envelope-scoped release.
///
/// Cells are never freed or moved *during* a handler invocation, so an
/// `ObjRef` stays valid for as long as the invocation that obtained it —
/// which is all the continuation machinery and natives rely on (an
/// `ObjRef` handed to a native is valid for that call). Between
/// invocations a host brackets each message with [`mark`](Self::mark) and
/// [`release`](Self::release): everything the message allocated is freed
/// again unless the handler published it, by storing a reference to it
/// into a cell that existed before the mark (seen by the write barrier in
/// [`set_field`](Self::set_field) / [`array_set`](Self::array_set), the
/// only ways to write a cell) or by leaving one in a root the host names
/// (its globals, the handler's return value). A published object — and,
/// conservatively, everything else that message allocated — lives on like
/// any older cell. A heap that is never marked never frees.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    cells: Vec<HeapCell>,
    /// Cells at or above this index were allocated since the pending
    /// [`mark`](Self::mark); 0 when none is pending.
    mark: u32,
    /// A store since the pending mark wrote a reference to a cell at or
    /// above it into a cell below it.
    escaped: bool,
}

/// The heap's extent when [`Heap::mark`] was called; consumed by
/// [`Heap::release`].
#[derive(Debug)]
#[must_use = "a mark that is never released frees nothing"]
pub struct HeapMark(u32);

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the heap holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Allocates an instance of `class` with all fields defaulted to
    /// `null`/zero per the declared field type.
    pub fn alloc_object(&mut self, classes: &ClassTable, class: ClassId) -> ObjRef {
        let decl = classes.decl(class);
        let fields = decl
            .fields
            .iter()
            .map(|f| match f.ty {
                crate::types::FieldType::Bool => Value::Bool(false),
                crate::types::FieldType::Int => Value::Int(0),
                crate::types::FieldType::Float => Value::Float(0.0),
                crate::types::FieldType::Str => Value::str(""),
                crate::types::FieldType::Ref => Value::Null,
            })
            .collect();
        self.push(HeapCell::Object { class, fields })
    }

    /// Allocates a zeroed array.
    pub fn alloc_array(&mut self, elem: ElemType, len: usize) -> ObjRef {
        self.push(HeapCell::Array(ArrayData::zeroed(elem, len)))
    }

    /// Allocates an array from existing data.
    pub fn alloc_array_from(&mut self, data: ArrayData) -> ObjRef {
        self.push(HeapCell::Array(data))
    }

    /// Opens a message scope: cells allocated from here on are released by
    /// the matching [`release`](Self::release). One scope at a time — a
    /// second `mark` supersedes the first, whose release then keeps
    /// everything.
    pub fn mark(&mut self) -> HeapMark {
        self.mark = self.cells.len() as u32;
        self.escaped = false;
        HeapMark(self.mark)
    }

    /// Closes the scope opened by `mark`: frees every cell allocated since,
    /// unless one of them may still be reachable — a store wrote a
    /// reference to one into an older cell, or one of `roots` refers to
    /// one — in which case nothing is freed. Returns whether the cells
    /// were freed.
    pub fn release<'a>(
        &mut self,
        mark: HeapMark,
        roots: impl IntoIterator<Item = &'a Value>,
    ) -> bool {
        let reachable = mark.0 != self.mark
            || self.escaped
            || roots.into_iter().any(|v| matches!(v, Value::Ref(r) if r.0 >= mark.0));
        self.mark = 0;
        self.escaped = false;
        if !reachable {
            self.cells.truncate(mark.0 as usize);
        }
        !reachable
    }

    /// The write barrier: `value` is about to be stored into cell `into`.
    fn note_store(&mut self, into: ObjRef, value: &Value) {
        if into.0 < self.mark && matches!(value, Value::Ref(r) if r.0 >= self.mark) {
            self.escaped = true;
        }
    }

    fn push(&mut self, cell: HeapCell) -> ObjRef {
        let r = ObjRef(self.cells.len() as u32);
        self.cells.push(cell);
        r
    }

    /// Returns the cell behind `r`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DanglingRef`] if `r` belongs to a different heap.
    pub fn cell(&self, r: ObjRef) -> Result<&HeapCell, IrError> {
        self.cells
            .get(r.index())
            .ok_or_else(|| IrError::DanglingRef(format!("{r} not on this heap")))
    }

    /// Mutable access to the cell behind `r`. Private: every write goes
    /// through the barrier in `set_field` / `array_set`.
    fn cell_mut(&mut self, r: ObjRef) -> Result<&mut HeapCell, IrError> {
        self.cells
            .get_mut(r.index())
            .ok_or_else(|| IrError::DanglingRef(format!("{r} not on this heap")))
    }

    /// Reads object field `field` of `r`.
    ///
    /// # Errors
    ///
    /// Returns a type error if `r` is an array, or a dangling-ref error.
    pub fn field(&self, r: ObjRef, field: FieldId) -> Result<Value, IrError> {
        match self.cell(r)? {
            HeapCell::Object { fields, .. } => fields
                .get(field.index())
                .cloned()
                .ok_or_else(|| IrError::Type(format!("no field #{} on {r}", field.index()))),
            HeapCell::Array(_) => Err(IrError::Type(format!("{r} is an array, not an object"))),
        }
    }

    /// Writes object field `field` of `r`.
    ///
    /// # Errors
    ///
    /// Returns a type error if `r` is an array or the field is missing.
    pub fn set_field(&mut self, r: ObjRef, field: FieldId, value: Value) -> Result<(), IrError> {
        self.note_store(r, &value);
        match self.cell_mut(r)? {
            HeapCell::Object { fields, .. } => {
                let slot = fields
                    .get_mut(field.index())
                    .ok_or_else(|| IrError::Type(format!("no field #{} on {r}", field.index())))?;
                *slot = value;
                Ok(())
            }
            HeapCell::Array(_) => Err(IrError::Type(format!("{r} is an array, not an object"))),
        }
    }

    /// Returns the class of the object behind `r`, or `None` for arrays.
    pub fn class_of(&self, r: ObjRef) -> Result<Option<ClassId>, IrError> {
        Ok(match self.cell(r)? {
            HeapCell::Object { class, .. } => Some(*class),
            HeapCell::Array(_) => None,
        })
    }

    /// Reads array element `index` of `r`.
    ///
    /// # Errors
    ///
    /// Returns a type error if `r` is not an array, or bounds errors.
    pub fn array_get(&self, r: ObjRef, index: i64) -> Result<Value, IrError> {
        match self.cell(r)? {
            HeapCell::Array(a) => a.get(index),
            HeapCell::Object { .. } => {
                Err(IrError::Type(format!("{r} is an object, not an array")))
            }
        }
    }

    /// Writes array element `index` of `r`.
    ///
    /// # Errors
    ///
    /// Returns a type error if `r` is not an array, or bounds errors.
    pub fn array_set(&mut self, r: ObjRef, index: i64, value: Value) -> Result<(), IrError> {
        self.note_store(r, &value);
        match self.cell_mut(r)? {
            HeapCell::Array(a) => a.set(index, value),
            HeapCell::Object { .. } => {
                Err(IrError::Type(format!("{r} is an object, not an array")))
            }
        }
    }

    /// Reads element `index` of an int or byte array as an `i64`, without
    /// a `Value` round trip. Returns `Ok(None)` for float and ref arrays
    /// and for objects, which the caller reads through
    /// [`array_get`](Self::array_get) for the identical value or error.
    ///
    /// # Errors
    ///
    /// Dangling-ref and bounds errors exactly as `array_get` reports them.
    #[inline]
    pub(crate) fn int_elem(&self, r: ObjRef, index: i64) -> Result<Option<i64>, IrError> {
        match self.cell(r)? {
            HeapCell::Array(ArrayData::Int(v)) => Ok(Some(v[check_index(index, v.len())?])),
            HeapCell::Array(ArrayData::Byte(v)) => {
                Ok(Some(i64::from(v[check_index(index, v.len())?])))
            }
            _ => Ok(None),
        }
    }

    /// Writes integer `value` to element `index` of an int or byte array
    /// (byte stores truncate like [`ArrayData::set`]), without a `Value`
    /// round trip. Returns `Ok(false)` — nothing written — for float and
    /// ref arrays and for objects, which the caller stores through
    /// [`array_set`](Self::array_set). An integer is never a reference,
    /// so the write barrier has nothing to note.
    ///
    /// # Errors
    ///
    /// Dangling-ref and bounds errors exactly as `array_set` reports them.
    #[inline]
    pub(crate) fn set_int_elem(
        &mut self,
        r: ObjRef,
        index: i64,
        value: i64,
    ) -> Result<bool, IrError> {
        match self.cell_mut(r)? {
            HeapCell::Array(ArrayData::Int(v)) => {
                let i = check_index(index, v.len())?;
                v[i] = value;
            }
            HeapCell::Array(ArrayData::Byte(v)) => {
                let i = check_index(index, v.len())?;
                v[i] = value as u8;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Length of the array behind `r`.
    ///
    /// # Errors
    ///
    /// Returns a type error if `r` is not an array.
    pub fn array_len(&self, r: ObjRef) -> Result<usize, IrError> {
        match self.cell(r)? {
            HeapCell::Array(a) => Ok(a.len()),
            HeapCell::Object { .. } => {
                Err(IrError::Type(format!("{r} is an object, not an array")))
            }
        }
    }
}

impl fmt::Display for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "heap with {} cells", self.cells.len())?;
        for (i, cell) in self.cells.iter().enumerate() {
            match cell {
                HeapCell::Object { class, fields } => {
                    writeln!(f, "  @{i}: {class} {{{} fields}}", fields.len())?
                }
                HeapCell::Array(a) => writeln!(f, "  @{i}: {}[{}]", a.elem_type(), a.len())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClassDecl, FieldDecl, FieldType};

    fn table_with_point() -> (ClassTable, ClassId) {
        let mut t = ClassTable::new();
        let id = t
            .declare(ClassDecl::new(
                "Point",
                vec![
                    FieldDecl { name: "x".into(), ty: FieldType::Int },
                    FieldDecl { name: "y".into(), ty: FieldType::Int },
                ],
            ))
            .unwrap();
        (t, id)
    }

    #[test]
    fn object_fields_default_then_update() {
        let (t, point) = table_with_point();
        let mut h = Heap::new();
        let r = h.alloc_object(&t, point);
        assert_eq!(h.field(r, FieldId(0)).unwrap(), Value::Int(0));
        h.set_field(r, FieldId(1), Value::Int(7)).unwrap();
        assert_eq!(h.field(r, FieldId(1)).unwrap(), Value::Int(7));
    }

    #[test]
    fn array_round_trip_all_elem_types() {
        let mut h = Heap::new();
        for elem in [ElemType::Byte, ElemType::Int, ElemType::Float, ElemType::Ref] {
            let r = h.alloc_array(elem, 4);
            assert_eq!(h.array_len(r).unwrap(), 4);
            let v = match elem {
                ElemType::Float => Value::Float(2.5),
                ElemType::Ref => Value::str("x"),
                _ => Value::Int(3),
            };
            h.array_set(r, 2, v.clone()).unwrap();
            let got = h.array_get(r, 2).unwrap();
            match elem {
                ElemType::Byte | ElemType::Int => assert_eq!(got, Value::Int(3)),
                ElemType::Float => assert_eq!(got, Value::Float(2.5)),
                ElemType::Ref => assert_eq!(got, Value::str("x")),
            }
        }
    }

    #[test]
    fn byte_array_truncates_like_java() {
        let mut h = Heap::new();
        let r = h.alloc_array(ElemType::Byte, 1);
        h.array_set(r, 0, Value::Int(300)).unwrap();
        assert_eq!(h.array_get(r, 0).unwrap(), Value::Int(44));
    }

    #[test]
    fn bounds_errors() {
        let mut h = Heap::new();
        let r = h.alloc_array(ElemType::Int, 2);
        assert!(matches!(h.array_get(r, 2), Err(IrError::Bounds { .. })));
        assert!(matches!(h.array_get(r, -1), Err(IrError::Bounds { .. })));
        assert!(matches!(h.array_set(r, 9, Value::Int(0)), Err(IrError::Bounds { .. })));
    }

    #[test]
    fn kind_confusion_reports_type_error() {
        let (t, point) = table_with_point();
        let mut h = Heap::new();
        let obj = h.alloc_object(&t, point);
        let arr = h.alloc_array(ElemType::Int, 1);
        assert!(matches!(h.array_len(obj), Err(IrError::Type(_))));
        assert!(matches!(h.field(arr, FieldId(0)), Err(IrError::Type(_))));
    }

    #[test]
    fn dangling_ref_detected() {
        let h = Heap::new();
        assert!(matches!(h.cell(ObjRef(5)), Err(IrError::DanglingRef(_))));
    }

    #[test]
    fn release_frees_what_the_message_allocated() {
        let (t, point) = table_with_point();
        let mut h = Heap::new();
        let old = h.alloc_object(&t, point);
        let mark = h.mark();
        let scratch = h.alloc_array(ElemType::Ref, 2);
        let inner = h.alloc_object(&t, point);
        // New → new and new → old references do not publish anything.
        h.array_set(scratch, 0, Value::Ref(inner)).unwrap();
        h.array_set(scratch, 1, Value::Ref(old)).unwrap();
        h.set_field(old, FieldId(0), Value::Int(9)).unwrap();
        assert!(h.release(mark, [&Value::Ref(old), &Value::Int(3)]));
        assert_eq!(h.len(), 1);
        assert!(matches!(h.cell(scratch), Err(IrError::DanglingRef(_))));
        assert_eq!(h.field(old, FieldId(0)).unwrap(), Value::Int(9));
        // The freed indices are handed out again.
        assert_eq!(h.alloc_array(ElemType::Byte, 1), scratch);
    }

    #[test]
    fn release_keeps_everything_when_a_cell_was_published() {
        let (t, point) = table_with_point();
        let mut h = Heap::new();
        let old_arr = h.alloc_array(ElemType::Ref, 1);
        let old_obj = h.alloc_object(&t, point);

        // Through an older array.
        let mark = h.mark();
        let fresh = h.alloc_array(ElemType::Byte, 4);
        h.array_set(old_arr, 0, Value::Ref(fresh)).unwrap();
        assert!(!h.release(mark, []));
        assert_eq!(h.len(), 3);
        assert_eq!(h.array_get(old_arr, 0).unwrap(), Value::Ref(fresh));

        // Through a field of an older object.
        let mark = h.mark();
        let fresh = h.alloc_array(ElemType::Byte, 4);
        h.set_field(old_obj, FieldId(0), Value::Ref(fresh)).unwrap();
        assert!(!h.release(mark, []));
        assert_eq!(h.len(), 4);

        // Through a root. What earlier messages published is old now, so
        // writing into it publishes nothing.
        let mark = h.mark();
        let ret = h.alloc_array(ElemType::Byte, 4);
        h.array_set(fresh, 0, Value::Int(1)).unwrap();
        assert!(!h.release(mark, [&Value::Null, &Value::Ref(ret)]));
        assert_eq!(h.len(), 5);

        // The barrier is per scope: the next message is released again.
        let mark = h.mark();
        h.alloc_array(ElemType::Byte, 4);
        assert!(h.release(mark, [&Value::Ref(ret)]));
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn a_superseded_mark_releases_nothing() {
        let mut h = Heap::new();
        let old = h.alloc_array(ElemType::Ref, 1);
        let outer = h.mark();
        let mid = h.alloc_array(ElemType::Ref, 1);
        let inner = h.mark();
        let fresh = h.alloc_array(ElemType::Byte, 1);
        assert!(h.release(inner, []));
        // `outer`'s barrier was not watching while `inner` was pending.
        h.array_set(old, 0, Value::Ref(mid)).unwrap();
        assert!(!h.release(outer, []));
        assert_eq!(h.len(), 2);
        assert!(matches!(h.cell(fresh), Err(IrError::DanglingRef(_))));
    }

    #[test]
    fn class_of_distinguishes_arrays() {
        let (t, point) = table_with_point();
        let mut h = Heap::new();
        let obj = h.alloc_object(&t, point);
        let arr = h.alloc_array(ElemType::Byte, 0);
        assert_eq!(h.class_of(obj).unwrap(), Some(point));
        assert_eq!(h.class_of(arr).unwrap(), None);
    }
}
