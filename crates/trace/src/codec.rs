//! The trace journal's format, stated once.
//!
//! A journal record is one flat JSON object, `{"seq":…,"type":…,…}`.
//! [`journal_enum!`] declares an enum together with its journal form: each
//! variant's tag string and each field (whose key is the field's name) are
//! written once, and the enum's `name`, its encoder ([`Field::put`]) and
//! its decoder ([`Field::take`]) are all derived from that one statement.
//! `TraceEvent` is declared so under the record key `type`; the outcome
//! and rule enums are fields declared the same way, their tag under the
//! field's key and their own fields flattened beside it. The leaf types —
//! ids, integers, Definition 6 orders, DMT objects, `Set` encodings — are
//! [`Value`]s: one JSON value each, written and read in one `impl`.

use mdts_model::{ItemId, OpKind, TxId};
use mdts_vector::CmpResult;

use crate::event::{Change, DmtObj, EncodedChanges, TraceEvent, TraceRecord};
use crate::json::Json;

/// How a field of this type is written into the object that holds it, and
/// read back from that object.
pub(crate) trait Field: Sized {
    /// Appends the field's pairs, the first under `key`.
    fn put(&self, key: &'static str, out: &mut Vec<(&'static str, Json)>);
    /// Reads the field back from the object its pairs were appended to.
    fn take(obj: &Json, key: &str) -> Result<Self, String>;
}

/// A type whose journal form is a single JSON value.
pub(crate) trait Value: Sized {
    /// The value's JSON form.
    fn to_json(&self) -> Json;
    /// The value back from its JSON form, or why it is not one.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl<T: Value> Field for T {
    fn put(&self, key: &'static str, out: &mut Vec<(&'static str, Json)>) {
        out.push((key, self.to_json()));
    }

    fn take(obj: &Json, key: &str) -> Result<Self, String> {
        let v = obj.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
        T::from_json(v).map_err(|why| format!("field '{key}': {why}"))
    }
}

/// The tag a [`journal_enum!`] wrote under `key`.
pub(crate) fn tag<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    let v = obj.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
    v.as_str().ok_or_else(|| format!("field '{key}' is not a string"))
}

/// Declares an enum and its journal form in one statement: each variant
/// as `Name = "tag"`, with its fields (if any) in braces. Generates the
/// enum, `name`, `TAGS` (every tag with its field keys), and the [`Field`]
/// impl that writes the tag under the holding key and each field under
/// its own name, and reads them back.
macro_rules! journal_enum {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident = $tag:literal $({
                    $( $(#[$fmeta:meta])* $field:ident : $Ty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $Enum {
            $(
                $(#[$vmeta])*
                $Variant $({ $( $(#[$fmeta])* $field: $Ty ),* })?,
            )*
        }

        impl $Enum {
            /// Every variant's journal tag with its field keys, in
            /// declaration order (the round-trip tests enumerate them).
            #[cfg(test)]
            pub(crate) const TAGS: &'static [(&'static str, &'static [&'static str])] =
                &[$( ($tag, &[$($(stringify!($field)),*)?]) ),*];

            /// Stable snake_case name: the variant's journal tag.
            pub fn name(&self) -> &'static str {
                match self {
                    $( $Enum::$Variant { .. } => $tag, )*
                }
            }
        }

        impl $crate::codec::Field for $Enum {
            fn put(
                &self,
                key: &'static str,
                out: &mut Vec<(&'static str, $crate::json::Json)>,
            ) {
                out.push((key, $crate::json::Json::str(self.name())));
                match self {
                    $( $Enum::$Variant { $($($field),*)? } => {
                        $($( $crate::codec::Field::put($field, stringify!($field), out); )*)?
                    } )*
                }
            }

            fn take(obj: &$crate::json::Json, key: &str) -> Result<Self, String> {
                Ok(match $crate::codec::tag(obj, key)? {
                    $( $tag => $Enum::$Variant {
                        $($( $field: $crate::codec::Field::take(obj, stringify!($field))? ),*)?
                    }, )*
                    other => return Err(format!("unknown {key} '{other}'")),
                })
            }
        }
    };
}
pub(crate) use journal_enum;

/// The record's own keys; no event field may take either.
pub(crate) const SEQ: &str = "seq";
pub(crate) const TYPE: &str = "type";

impl Value for TraceRecord {
    fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        self.seq.put(SEQ, &mut pairs);
        self.event.put(TYPE, &mut pairs);
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(TraceRecord { seq: u64::take(v, SEQ)?, event: TraceEvent::take(v, TYPE)? })
    }
}

impl Value for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| "not an unsigned integer".into())
    }
}

impl Value for u32 {
    fn to_json(&self) -> Json {
        Json::U64(u64::from(*self))
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        u32::try_from(u64::from_json(v)?).map_err(|_| "exceeds u32".into())
    }
}

impl Value for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        usize::try_from(u64::from_json(v)?).map_err(|_| "exceeds usize".into())
    }
}

impl Value for i64 {
    fn to_json(&self) -> Json {
        Json::I64(*self)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        match *v {
            Json::U64(n) => i64::try_from(n).map_err(|_| "exceeds i64".into()),
            Json::I64(n) => Ok(n),
            _ => Err("not an integer".into()),
        }
    }
}

/// `null` when absent (the restart hint).
impl Value for Option<i64> {
    fn to_json(&self) -> Json {
        self.map_or(Json::Null, Json::I64)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => i64::from_json(v).map(Some),
        }
    }
}

impl Value for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "not numeric".into())
    }
}

impl Value for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        match *v {
            Json::Bool(b) => Ok(b),
            _ => Err("not a boolean".into()),
        }
    }
}

impl Value for TxId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        u32::from_json(v).map(TxId)
    }
}

impl Value for ItemId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        u32::from_json(v).map(ItemId)
    }
}

/// The paper's one-letter mnemonic, [`OpKind::letter`].
impl Value for OpKind {
    fn to_json(&self) -> Json {
        Json::str(self.letter().to_string())
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let s = v.as_str().ok_or("not a string")?;
        [OpKind::Read, OpKind::Write]
            .into_iter()
            .find(|kind| s.strip_prefix(kind.letter()) == Some(""))
            .ok_or_else(|| format!("not an operation letter: '{s}'"))
    }
}

/// A journal name and the constructor it decodes through.
type Named<A, T> = (&'static str, fn(A) -> T);

/// Definition 6's orders by journal name, each built from its deciding
/// position (`identical`, which has none, ignores it).
pub(crate) const ORDERS: [Named<usize, CmpResult>; 6] = [
    ("less", |at| CmpResult::Less { at }),
    ("greater", |at| CmpResult::Greater { at }),
    ("equal_undefined", |at| CmpResult::EqualUndefined { at }),
    ("left_undefined", |at| CmpResult::LeftUndefined { at }),
    ("right_undefined", |at| CmpResult::RightUndefined { at }),
    ("identical", |_| CmpResult::Identical),
];

/// `{"order":…,"at":…}`, the position omitted for `identical`.
impl Value for CmpResult {
    fn to_json(&self) -> Json {
        let at = self.at();
        let (name, _) = ORDERS
            .iter()
            .find(|(_, make)| make(at.unwrap_or(0)) == *self)
            .expect("every order is named");
        let mut pairs = vec![("order", Json::str(*name))];
        if let Some(at) = at {
            at.put("at", &mut pairs);
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let order = tag(v, "order")?;
        let (_, make) = ORDERS
            .iter()
            .find(|(name, _)| *name == order)
            .ok_or_else(|| format!("unknown comparison order '{order}'"))?;
        let result = make(0);
        if result.at().is_none() {
            return Ok(result);
        }
        Ok(make(usize::take(v, "at")?))
    }
}

/// A DMT(k) lock-space object by the key naming its kind, each built from
/// its id.
const OBJECTS: [Named<u32, DmtObj>; 2] =
    [("item", |n| DmtObj::Item(ItemId(n))), ("vector", |n| DmtObj::Vector(TxId(n)))];

/// `{"item":n}` or `{"vector":n}`.
impl Value for DmtObj {
    fn to_json(&self) -> Json {
        let id = match *self {
            DmtObj::Item(item) => item.0,
            DmtObj::Vector(tx) => tx.0,
        };
        let (key, _) =
            OBJECTS.iter().find(|(_, make)| make(id) == *self).expect("every kind keyed");
        Json::obj(vec![(key, id.to_json())])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        OBJECTS
            .iter()
            .find(|(key, _)| v.get(key).is_some())
            .ok_or_else(|| "neither an item nor a vector object".to_string())
            .and_then(|&(key, make)| u32::take(v, key).map(make))
    }
}

/// One `Set` assignment's keys: `(transaction, element, value)`.
const CHANGE: [&str; 3] = ["tx", "element", "value"];

/// An array of `{"tx":…,"element":…,"value":…}` objects, in encode order.
impl Value for EncodedChanges {
    fn to_json(&self) -> Json {
        let change = |&(tx, element, value): &Change| {
            let mut pairs = Vec::with_capacity(3);
            tx.put(CHANGE[0], &mut pairs);
            element.put(CHANGE[1], &mut pairs);
            value.put(CHANGE[2], &mut pairs);
            Json::obj(pairs)
        };
        Json::Arr(self.iter().map(change).collect())
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Arr(items) = v else { return Err("not an array".into()) };
        items
            .iter()
            .map(|c| {
                Ok((
                    TxId::take(c, CHANGE[0])?,
                    usize::take(c, CHANGE[1])?,
                    i64::take(c, CHANGE[2])?,
                ))
            })
            .collect()
    }
}
