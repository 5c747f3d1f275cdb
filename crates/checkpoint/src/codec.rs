//! The snapshot codec: one value trait over the serde stand-in's
//! [`Value`] tree, and the declarations that implement it.
//!
//! Every wire decision is made once, here:
//!
//! | Rust value | wire form |
//! |---|---|
//! | `u8`…`u64`, `usize`, an id newtype ([`ck_id!`](crate::ck_id)) | `U64`, range-checked on the way back |
//! | `f64` | `U64` of its raw IEEE-754 bits — never a JSON float |
//! | `SimTime`, `SimDuration` | `U64` nanoseconds |
//! | `bool`, `String`, `Arc<str>` | `Bool`, `Str` |
//! | a unit enum ([`ck_enum!`](crate::ck_enum)) | `Str` of its declared wire name |
//! | an enum with fields ([`ck_tagged!`](crate::ck_tagged)) | `Map` opening with the variant's tag, then its fields |
//! | `Option<T>` | `Null` or `T` |
//! | `Vec`, `VecDeque`, `BTreeSet` | `Seq` |
//! | a tuple, a positional record (`ck_record!(T [a, b])`) | `Seq` row of fixed arity, checked once |
//! | a named-field record (`ck_record!(T { a, b })`) | `Map` in declaration order |
//! | `BTreeMap<String, V>` | `Map` |
//! | id-keyed `BTreeMap<K, V>` | `Seq` of `[k, v…]` rows |
//!
//! A row splices the rows inside it: `BTreeMap<(A, B), C>` writes
//! `[a, b, c]`, and a map whose value is a three-field positional record
//! writes `[k, x, y, z]`. [`Ck::CELLS`] carries the arity.
//!
//! Every failure is a typed [`CheckpointError`] naming the field.

use crate::error::CheckpointError;
use crate::Checkpointable;
use serde::Value;
use simcore::queue::QueueSnapshot;
use simcore::stats::DurabilityState;
use simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A value with one wire form.
pub trait Ck: Sized {
    /// Cells this value occupies in an enclosing row: one, unless it is
    /// itself a row.
    const CELLS: usize = 1;

    fn put(&self) -> Value;

    /// Decode; `at` names the field for the error.
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError>;

    /// Append this value's cells to an enclosing row.
    fn put_cells(&self, row: &mut Vec<Value>) {
        row.push(self.put());
    }

    /// Decode from exactly [`CELLS`](Self::CELLS) cells of a row.
    fn take_cells(cells: &[Value], at: &str) -> Result<Self, CheckpointError> {
        Self::take(&cells[0], at)
    }
}

/// A key an id-keyed map is written by: an integer or an id newtype,
/// not a `String` (string-keyed maps are JSON objects).
pub trait Id: Ck + Ord {}

/// A record that carries its own map key, so a map of them is written
/// as the sequence of its values ([`keyed`]).
pub trait Keyed {
    type Key: Ord;
    fn key(&self) -> Self::Key;
}

// ------------------------------------------------------------- scalars

fn mismatch(at: &str, expected: &'static str) -> CheckpointError {
    CheckpointError::TypeMismatch {
        field: at.to_string(),
        expected,
    }
}

/// An unknown tag or enum name in field `at`.
pub fn unknown(at: &str, what: &str, found: &str) -> CheckpointError {
    CheckpointError::Corrupt(format!("`{at}`: unknown {what} `{found}`"))
}

macro_rules! ck_uint {
    ($($t:ident),+) => {$(
        impl Ck for $t {
            fn put(&self) -> Value {
                Value::U64(*self as u64)
            }
            fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
                // a non-negative number may arrive as either integer kind
                match v {
                    Value::U64(n) => $t::try_from(*n).ok(),
                    Value::I64(n) => $t::try_from(*n).ok(),
                    _ => None,
                }
                .ok_or_else(|| mismatch(at, stringify!($t)))
            }
        }
        impl Id for $t {}
    )+};
}
ck_uint!(u8, u16, u32, u64, usize);

/// A cell left encoded: its reader decodes it once it knows what it is
/// (a tagged payload, a section handed on to `load_state`).
impl Ck for Value {
    fn put(&self) -> Value {
        self.clone()
    }
    fn take(v: &Value, _at: &str) -> Result<Self, CheckpointError> {
        Ok(v.clone())
    }
}

impl Ck for bool {
    fn put(&self) -> Value {
        Value::Bool(*self)
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(mismatch(at, "bool")),
        }
    }
}

impl Ck for String {
    fn put(&self) -> Value {
        Value::Str(self.clone())
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| mismatch(at, "string"))
    }
}

impl Ck for Arc<str> {
    fn put(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        v.as_str()
            .map(Arc::from)
            .ok_or_else(|| mismatch(at, "string"))
    }
}

impl Ck for f64 {
    fn put(&self) -> Value {
        Value::U64(self.to_bits())
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        u64::take(v, at).map(f64::from_bits)
    }
}

impl Ck for SimTime {
    fn put(&self) -> Value {
        Value::U64(self.as_nanos())
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        u64::take(v, at).map(SimTime::from_nanos)
    }
}

impl Ck for SimDuration {
    fn put(&self) -> Value {
        Value::U64(self.as_nanos())
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        u64::take(v, at).map(SimDuration::from_nanos)
    }
}

impl<T: Ck> Ck for Option<T> {
    fn put(&self) -> Value {
        self.as_ref().map_or(Value::Null, Ck::put)
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        match v {
            Value::Null => Ok(None),
            v => T::take(v, at).map(Some),
        }
    }
}

// ---------------------------------------------------------- sequences

/// The items of a `Seq`.
pub fn seq<'a>(v: &'a Value, at: &str) -> Result<&'a [Value], CheckpointError> {
    v.as_seq().ok_or_else(|| mismatch(at, "sequence"))
}

/// Write any iterator of values as a `Seq`.
pub fn put_seq<'a, T: Ck + 'a>(items: impl IntoIterator<Item = &'a T>) -> Value {
    Value::Seq(items.into_iter().map(Ck::put).collect())
}

macro_rules! ck_seq {
    ($($c:ident $(: $bound:ident)?),+) => {$(
        impl<T: Ck $(+ $bound)?> Ck for $c<T> {
            fn put(&self) -> Value {
                put_seq(self)
            }
            fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
                seq(v, at)?.iter().map(|x| T::take(x, at)).collect()
            }
        }
    )+};
}
ck_seq!(Vec, VecDeque, BTreeSet: Ord);

/// A row of the wrong arity in field `at`.
pub fn arity(at: &str, found: usize, expected: usize) -> CheckpointError {
    CheckpointError::Corrupt(format!(
        "`{at}`: row has {found} cells, expected {expected}"
    ))
}

/// Decode a `Seq` as one row of `T`'s arity.
pub fn take_row<T: Ck>(v: &Value, at: &str) -> Result<T, CheckpointError> {
    let cells = seq(v, at)?;
    if cells.len() != T::CELLS {
        return Err(arity(at, cells.len(), T::CELLS));
    }
    T::take_cells(cells, at)
}

/// Build a `Seq` row of `cells` cells.
pub fn put_row(cells: usize, fill: impl FnOnce(&mut Vec<Value>)) -> Value {
    let mut row = Vec::with_capacity(cells);
    fill(&mut row);
    Value::Seq(row)
}

/// Take the first `n` cells off `rest`.
fn split_off<'a>(rest: &mut &'a [Value], n: usize) -> &'a [Value] {
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    head
}

macro_rules! ck_tuple {
    ($($T:ident $i:tt),+) => {
        impl<$($T: Ck),+> Ck for ($($T,)+) {
            const CELLS: usize = 0 $(+ $T::CELLS)+;
            fn put(&self) -> Value {
                put_row(Self::CELLS, |row| self.put_cells(row))
            }
            fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
                take_row(v, at)
            }
            fn put_cells(&self, row: &mut Vec<Value>) {
                $(self.$i.put_cells(row);)+
            }
            fn take_cells(cells: &[Value], at: &str) -> Result<Self, CheckpointError> {
                let mut rest = cells;
                Ok(($($T::take_cells(split_off(&mut rest, $T::CELLS), at)?,)+))
            }
        }
        impl<$($T: Id),+> Id for ($($T,)+) {}
    };
}
ck_tuple!(A 0, B 1);
ck_tuple!(A 0, B 1, C 2);
ck_tuple!(A 0, B 1, C 2, D 3);
ck_tuple!(A 0, B 1, C 2, D 3, E 4);

// --------------------------------------------------------------- maps

impl<V: Ck> Ck for BTreeMap<String, V> {
    fn put(&self) -> Value {
        Value::Map(self.iter().map(|(k, v)| (k.clone(), v.put())).collect())
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        v.as_map()
            .ok_or_else(|| mismatch(at, "map"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::take(v, k)?)))
            .collect()
    }
}

impl<K: Id, V: Ck> Ck for BTreeMap<K, V> {
    fn put(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| {
                    put_row(K::CELLS + V::CELLS, |row| {
                        k.put_cells(row);
                        v.put_cells(row);
                    })
                })
                .collect(),
        )
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        seq(v, at)?.iter().map(|row| take_row(row, at)).collect()
    }
}

// ------------------------------------------------------------ sections

/// A map entry, failing with the field's name.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CheckpointError> {
    v.get(key)
        .ok_or_else(|| CheckpointError::MissingField(key.to_string()))
}

/// Decode the map entry `key`.
pub fn get<T: Ck>(v: &Value, key: &str) -> Result<T, CheckpointError> {
    T::take(field(v, key)?, key)
}

/// Builder for a hand-written `Map` section.
#[derive(Default)]
pub struct MapBuilder {
    entries: Vec<(String, Value)>,
}

impl MapBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder whose first entry is the tag `key: name` — how a
    /// [`ck_tagged!`](crate::ck_tagged) enum opens.
    pub fn tagged(key: &str, name: &str) -> Self {
        Self::new().raw(key, Value::Str(name.to_string()))
    }

    pub fn put<T: Ck>(self, key: &str, x: &T) -> Self {
        self.raw(key, x.put())
    }

    /// Add an already-encoded entry.
    pub fn raw(mut self, key: &str, v: Value) -> Self {
        self.entries.push((key.to_string(), v));
        self
    }

    pub fn build(self) -> Value {
        Value::Map(self.entries)
    }
}

// How a field of a `ck_fields!` list is written and hydrated. Each mode
// is a module with the same two functions.

/// A plain [`Ck`] field, replaced wholesale on load.
pub mod value {
    use super::*;
    pub fn save<T: Ck>(x: &T) -> Value {
        x.put()
    }
    pub fn load<T: Ck>(x: &mut T, v: &Value, at: &str) -> Result<(), CheckpointError> {
        *x = T::take(v, at)?;
        Ok(())
    }
}

/// A [`Checkpointable`] component, hydrated in place.
pub mod state {
    use super::*;
    pub fn save<T: Checkpointable + ?Sized>(x: &T) -> Value {
        x.save_state()
    }
    pub fn load<T: Checkpointable + ?Sized>(
        x: &mut T,
        v: &Value,
        _at: &str,
    ) -> Result<(), CheckpointError> {
        x.load_state(v)
    }
}

/// A map of [`Keyed`] records, written as the `Seq` of its values.
pub mod keyed {
    use super::*;
    pub fn save<K, T: Ck>(x: &BTreeMap<K, T>) -> Value {
        put_seq(x.values())
    }
    pub fn load<T: Ck + Keyed>(
        x: &mut BTreeMap<T::Key, T>,
        v: &Value,
        at: &str,
    ) -> Result<(), CheckpointError> {
        *x = Vec::<T>::take(v, at)?
            .into_iter()
            .map(|t| (t.key(), t))
            .collect();
        Ok(())
    }
}

// -------------------------------------------------------- declarations

/// `ck_id!(FileId, BlockId)`: newtypes over an integer, written as the
/// integer and usable as map keys.
#[macro_export]
macro_rules! ck_id {
    ($($t:ty),+ $(,)?) => {$(
        impl $crate::codec::Ck for $t {
            fn put(&self) -> $crate::Value {
                $crate::codec::Ck::put(&self.0)
            }
            fn take(v: &$crate::Value, at: &str) -> Result<Self, $crate::CheckpointError> {
                $crate::codec::Ck::take(v, at).map(Self)
            }
        }
        impl $crate::codec::Id for $t {}
    )+};
}

/// `ck_enum!(Priority { Immediate => "immediate", WhenIdle => "when_idle" })`:
/// a unit enum written as its declared wire name.
#[macro_export]
macro_rules! ck_enum {
    ($t:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $crate::codec::Ck for $t {
            fn put(&self) -> $crate::Value {
                $crate::Value::Str(match self { $($t::$variant => $name),+ }.to_string())
            }
            fn take(v: &$crate::Value, at: &str) -> Result<Self, $crate::CheckpointError> {
                match <String as $crate::codec::Ck>::take(v, at)?.as_str() {
                    $($name => Ok($t::$variant),)+
                    other => Err($crate::codec::unknown(at, stringify!($t), other)),
                }
            }
        }
    };
}

/// `ck_tagged!(Endpoint, "k" { "node" => Node(id), "client" => Client(id) })`:
/// an enum written as a `Map` that opens with the variant's tag under
/// the given key and goes on with the variant's fields — a struct
/// variant's under their own names, a one-field tuple variant's under
/// the name the declaration gives it. A variant without a field writes
/// no entry for it, which is how `ErmsTask`'s `target` is optional.
#[macro_export]
macro_rules! ck_tagged {
    ($t:ident, $key:literal {
        $($tag:literal => $variant:ident $({ $($f:ident),+ })? $(($g:ident))?),+ $(,)?
    }) => {
        impl $crate::codec::Ck for $t {
            fn put(&self) -> $crate::Value {
                match self {$(
                    $t::$variant $({ $($f),+ })? $(($g))? => {
                        $crate::codec::MapBuilder::tagged($key, $tag)
                            $($(.put(stringify!($f), $f))+)?
                            $(.put(stringify!($g), $g))?
                    }
                )+}
                .build()
            }
            fn take(v: &$crate::Value, at: &str) -> Result<Self, $crate::CheckpointError> {
                match $crate::codec::get::<String>(v, $key)?.as_str() {
                    $($tag => Ok($t::$variant
                        $({ $($f: $crate::codec::get(v, stringify!($f))?),+ })?
                        $(($crate::codec::get(v, stringify!($g))?))?),)+
                    other => Err($crate::codec::unknown(at, stringify!($t), other)),
                }
            }
        }
    };
}

/// A struct written field by field.
///
/// `ck_record!(T { a, b => "wire_name" })` writes a `Map` in declaration
/// order (a field's wire name is its own unless renamed);
/// `ck_record!(T [a, b])` writes a positional row of one cell per field,
/// which splices into an enclosing row. `T<P> where P` declares a
/// generic record whose parameters are themselves [`Ck`](crate::codec::Ck).
#[macro_export]
macro_rules! ck_record {
    (@name $f:ident) => { stringify!($f) };
    (@name $f:ident $wire:literal) => { $wire };
    ($t:ty $(where $($g:ident),+)? { $($f:ident $(=> $wire:literal)?),+ $(,)? }) => {
        impl$(<$($g: $crate::codec::Ck),+>)? $crate::codec::Ck for $t {
            fn put(&self) -> $crate::Value {
                $crate::Value::Map(vec![$((
                    $crate::ck_record!(@name $f $($wire)?).to_string(),
                    $crate::codec::Ck::put(&self.$f),
                )),+])
            }
            fn take(v: &$crate::Value, _at: &str) -> Result<Self, $crate::CheckpointError> {
                Ok(Self {
                    $($f: $crate::codec::get(v, $crate::ck_record!(@name $f $($wire)?))?),+
                })
            }
        }
    };
    ($t:ty [ $($f:ident),+ $(,)? ]) => {
        impl $crate::codec::Ck for $t {
            const CELLS: usize = [$(stringify!($f)),+].len();
            fn put(&self) -> $crate::Value {
                $crate::codec::put_row(Self::CELLS, |row| {
                    $crate::codec::Ck::put_cells(self, row)
                })
            }
            fn take(v: &$crate::Value, at: &str) -> Result<Self, $crate::CheckpointError> {
                $crate::codec::take_row(v, at)
            }
            fn put_cells(&self, row: &mut Vec<$crate::Value>) {
                $(row.push($crate::codec::Ck::put(&self.$f));)+
            }
            fn take_cells(
                cells: &[$crate::Value],
                at: &str,
            ) -> Result<Self, $crate::CheckpointError> {
                let [$($f),+] = cells else {
                    return Err($crate::codec::arity(at, cells.len(), Self::CELLS));
                };
                Ok(Self { $($f: $crate::codec::Ck::take($f, stringify!($f))?),+ })
            }
        }
    };
}

/// The two methods of a [`Checkpointable`](crate::Checkpointable) impl,
/// from one list of the struct's fields — for components that hydrate
/// in place. Each field is written under its own name, in list order:
///
/// - `name` — a [`Ck`](crate::codec::Ck) value ([`value`]);
/// - `name: state` — a `Checkpointable` component ([`state`]);
///   `name: keyed` — a map of [`Keyed`](crate::codec::Keyed) records
///   ([`keyed`]);
/// - `name(save, load)` — an irregular section: `self.save() -> Value`
///   and `self.load(&Value) -> Result<(), CheckpointError>`; `name`
///   need not be a field.
///
/// `; then check` runs `self.check()` once everything is loaded — the
/// place for what the decoders cannot see (an index within a table, a
/// vector with one entry per node).
#[macro_export]
macro_rules! ck_fields {
    ($($f:ident $(: $mode:ident)? $(($save:ident, $load:ident))?),+ $(,)? $(; then $check:ident)?) => {
        fn save_state(&self) -> $crate::Value {
            $crate::Value::Map(vec![$((
                stringify!($f).to_string(),
                $crate::ck_fields!(@save self $f $($mode)? $(($save))?),
            )),+])
        }

        fn load_state(&mut self, state: &$crate::Value) -> Result<(), $crate::CheckpointError> {
            $({
                let v = $crate::codec::field(state, stringify!($f))?;
                $crate::ck_fields!(@load self v $f $($mode)? $(($load))?);
            })+
            $(self.$check()?;)?
            Ok(())
        }
    };
    (@save $s:ident $f:ident) => { $crate::codec::value::save(&$s.$f) };
    (@save $s:ident $f:ident ($save:ident)) => { $s.$save() };
    (@save $s:ident $f:ident $mode:ident) => { $crate::codec::$mode::save(&$s.$f) };
    (@load $s:ident $v:ident $f:ident) => {
        $crate::codec::value::load(&mut $s.$f, $v, stringify!($f))?
    };
    (@load $s:ident $v:ident $f:ident ($load:ident)) => { $s.$load($v)? };
    (@load $s:ident $v:ident $f:ident $mode:ident) => {
        $crate::codec::$mode::load(&mut $s.$f, $v, stringify!($f))?
    };
}

// simcore sits below this crate, so its snapshot structs are declared here.
ck_record!(DurabilityState {
    open,
    windows,
    lost,
    repair_bytes
});
ck_record!(QueueSnapshot<E> where E { now, next_seq, entries });

#[cfg(test)]
mod tests {
    use super::*;

    fn json_round_trip<T: Ck>(x: &T) -> Result<T, CheckpointError> {
        let json = serde_json::to_string(&x.put()).unwrap();
        T::take(&serde_json::parse_value(&json).unwrap(), "x")
    }

    #[test]
    fn f64_bits_survive_json_even_for_nan_and_negatives() {
        for x in [0.0, -0.0, 1.5, -1234.75, f64::NAN, f64::INFINITY] {
            assert!(matches!(x.put(), Value::U64(_)), "never a JSON float");
            assert_eq!(json_round_trip(&x).unwrap().to_bits(), x.to_bits());
        }
        let some = Some(-0.0f64);
        assert_eq!(
            json_round_trip(&some).unwrap().map(f64::to_bits),
            some.map(f64::to_bits)
        );
        assert_eq!(json_round_trip(&None::<f64>).unwrap(), None);
    }

    #[test]
    fn integers_narrow_with_a_range_check() {
        assert_eq!(u8::take(&Value::U64(255), "n"), Ok(255));
        assert_eq!(
            u8::take(&Value::U64(300), "n"),
            Err(CheckpointError::TypeMismatch {
                field: "n".into(),
                expected: "u8"
            })
        );
        assert!(u32::take(&Value::U64(1 << 32), "n").is_err());
        assert!(u64::take(&Value::I64(-1), "n").is_err());
        assert!(u64::take(&Value::Str("7".into()), "n").is_err());
        assert_eq!(
            json_round_trip(&SimTime::from_secs(3)),
            Ok(SimTime::from_secs(3))
        );
    }

    #[test]
    fn map_builder_round_trips_through_getters() {
        let v = MapBuilder::tagged("k", "node")
            .put("n", &7u64)
            .put("flag", &true)
            .put("rate", &-0.125f64)
            .put("at", &SimTime::from_secs(3))
            .raw("items", vec![1u64, 2].put())
            .build();
        assert_eq!(get::<String>(&v, "k"), Ok("node".to_string()));
        assert_eq!(get::<u64>(&v, "n"), Ok(7));
        assert_eq!(get::<bool>(&v, "flag"), Ok(true));
        assert_eq!(get::<f64>(&v, "rate"), Ok(-0.125));
        assert_eq!(get::<SimTime>(&v, "at"), Ok(SimTime::from_secs(3)));
        assert_eq!(get::<Vec<u64>>(&v, "items"), Ok(vec![1, 2]));
    }

    #[test]
    fn errors_name_the_field() {
        let v = MapBuilder::new().put("n", &7u64).build();
        assert_eq!(
            get::<u64>(&v, "missing"),
            Err(CheckpointError::MissingField("missing".into()))
        );
        assert_eq!(
            get::<bool>(&v, "n"),
            Err(CheckpointError::TypeMismatch {
                field: "n".into(),
                expected: "bool"
            })
        );
    }

    #[test]
    fn rows_have_a_fixed_arity_and_splice() {
        let triple = Value::Seq(vec![Value::U64(1), Value::U64(2), Value::U64(3)]);
        assert!(matches!(
            <(u64, u64)>::take(&triple, "pair"),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(<(u64, u64, u64)>::take(&triple, "t"), Ok((1, 2, 3)));

        // a tuple key and a tuple value splice into one flat row
        let m = BTreeMap::from([((1u64, 2u32), (true, 5u8))]);
        let wire = serde_json::to_string(&m.put()).unwrap();
        assert_eq!(wire, "[[1,2,true,5]]");
        assert_eq!(json_round_trip(&m), Ok(m));
        // ... but a sequence inside a row stays one cell
        let nested = BTreeMap::from([(9u64, vec![(1u64, 2u64)])]);
        assert_eq!(
            serde_json::to_string(&nested.put()).unwrap(),
            "[[9,[[1,2]]]]"
        );
        assert_eq!(json_round_trip(&nested), Ok(nested));
    }

    #[test]
    fn string_keyed_maps_are_objects() {
        let m = BTreeMap::from([("a".to_string(), 1.5f64), ("b".to_string(), f64::NAN)]);
        let v = m.put();
        assert!(matches!(v, Value::Map(_)));
        let back = json_round_trip(&m).unwrap();
        assert_eq!(back["a"], 1.5);
        assert_eq!(back["b"].to_bits(), f64::NAN.to_bits());
        assert!(BTreeMap::<String, u64>::take(&Value::Seq(vec![]), "m").is_err());
    }

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
    struct Tag(u32);
    ck_id!(Tag);

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Mode {
        WhenIdle,
        Now,
    }
    ck_enum!(Mode { WhenIdle => "when_idle", Now => "now" });

    #[derive(Debug, PartialEq)]
    struct Named {
        id: Tag,
        node_local_blocks: u32,
        mode: Mode,
    }
    ck_record!(Named { id, node_local_blocks => "node_local", mode });

    #[derive(Debug, PartialEq)]
    enum Task {
        Grow { path: String, target: usize },
        Encode { path: String },
        Boot(Tag),
    }
    ck_tagged!(Task, "kind" {
        "grow" => Grow { path, target },
        "encode" => Encode { path },
        "boot" => Boot(id),
    });

    #[test]
    fn a_tagged_enum_opens_with_its_tag_and_writes_only_its_own_fields() {
        let tasks = vec![
            Task::Grow {
                path: "/f".into(),
                target: 4,
            },
            Task::Encode { path: "/g".into() },
            Task::Boot(Tag(7)),
        ];
        assert_eq!(
            serde_json::to_string(&tasks.put()).unwrap(),
            r#"[{"kind":"grow","path":"/f","target":4},{"kind":"encode","path":"/g"},{"kind":"boot","id":7}]"#
        );
        assert_eq!(json_round_trip(&tasks), Ok(tasks));
        let bad = MapBuilder::tagged("kind", "compress").build();
        assert!(matches!(
            Task::take(&bad, "payload"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[derive(Debug, PartialEq)]
    struct Cells {
        waiting: usize,
        failed: bool,
    }
    ck_record!(Cells [waiting, failed]);

    #[test]
    fn declarations_write_the_shapes_they_name() {
        let n = Named {
            id: Tag(4),
            node_local_blocks: 2,
            mode: Mode::WhenIdle,
        };
        assert_eq!(
            serde_json::to_string(&n.put()).unwrap(),
            r#"{"id":4,"node_local":2,"mode":"when_idle"}"#
        );
        assert_eq!(json_round_trip(&n), Ok(n));

        // an id refuses what its integer refuses; an enum an unknown name
        assert!(Tag::take(&Value::U64(1 << 40), "id").is_err());
        match Mode::take(&Value::Str("WhenIdle".into()), "mode") {
            Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains("WhenIdle"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // a positional record is a row, and splices behind a map key
        let m = BTreeMap::from([(
            Tag(7),
            Cells {
                waiting: 2,
                failed: true,
            },
        )]);
        assert_eq!(serde_json::to_string(&m.put()).unwrap(), "[[7,2,true]]");
        assert_eq!(json_round_trip(&m), Ok(m));
        let short = Value::Seq(vec![Value::Seq(vec![Value::U64(7), Value::U64(2)])]);
        assert!(matches!(
            BTreeMap::<Tag, Cells>::take(&short, "jobs"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    impl Keyed for Named {
        type Key = u32;
        fn key(&self) -> u32 {
            self.id.0
        }
    }

    #[derive(Default)]
    struct Component {
        count: u64,
        inner: Inner,
        by_id: BTreeMap<u32, Named>,
        odd: u64,
    }
    #[derive(Default)]
    struct Inner {
        level: Option<f64>,
    }
    impl Checkpointable for Inner {
        ck_fields!(level);
    }
    impl Component {
        fn save_odd(&self) -> Value {
            Value::Str(format!("#{}", self.odd))
        }
        fn load_odd(&mut self, v: &Value) -> Result<(), CheckpointError> {
            let s: String = Ck::take(v, "odd")?;
            self.odd = s
                .trim_start_matches('#')
                .parse()
                .map_err(|_| CheckpointError::Corrupt(format!("`odd`: not a number: {s}")))?;
            Ok(())
        }
        fn check(&self) -> Result<(), CheckpointError> {
            if self.count > 100 {
                return Err(CheckpointError::Corrupt("`count` above 100".into()));
            }
            Ok(())
        }
    }
    impl Checkpointable for Component {
        ck_fields!(count, inner: state, by_id: keyed, odd(save_odd, load_odd); then check);
    }

    #[test]
    fn a_field_list_saves_and_hydrates_in_place() {
        let mut c = Component {
            count: 3,
            odd: 9,
            ..Default::default()
        };
        c.inner.level = Some(0.5);
        c.by_id.insert(
            4,
            Named {
                id: Tag(4),
                node_local_blocks: 1,
                mode: Mode::Now,
            },
        );
        let json = serde_json::to_string(&c.save_state()).unwrap();
        assert_eq!(
            json,
            format!(
                r##"{{"count":3,"inner":{{"level":{}}},"by_id":[{{"id":4,"node_local":1,"mode":"now"}}],"odd":"#9"}}"##,
                0.5f64.to_bits()
            )
        );
        let mut back = Component::default();
        back.load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        assert_eq!(serde_json::to_string(&back.save_state()).unwrap(), json);
        assert_eq!(back.by_id[&4].mode, Mode::Now);

        let over = json.replace("\"count\":3", "\"count\":101");
        let err = back.load_state(&serde_json::parse_value(&over).unwrap());
        assert!(matches!(err, Err(CheckpointError::Corrupt(_))), "{err:?}");
    }
}
