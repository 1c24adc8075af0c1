//! One declaration per counter set.
//!
//! [`counters!`](crate::counters) takes a set's documented `u64` fields
//! once and generates the plain `Copy` struct (`Clone, Copy, Debug,
//! Default, PartialEq, Eq`), `add`, `NAMES`/`values()` in declaration order
//! (what the service's JSON replies render), a [`Wire`](crate::wire::Wire)
//! form that is byte for byte the values as a `Vec<u64>` — a `u32` count,
//! then each value; decode rejects a wrong count — and, with an `atomic`
//! clause, an `AtomicU64` twin for sets bumped from many threads, whose
//! `snapshot()` loads the plain struct.  The twin may carry extra fields
//! (gauges, timing-dependent counts) that stay out of the snapshot.
//!
//! It is a compile-time declaration, not a registry: a counter is a field,
//! so a bump costs what it did before.

/// Declares a counter set: `pub struct Name { /// doc
/// pub field: u64, ... }`, optionally followed by `atomic pub struct Twin
/// { extra: Type, ... }`; see [`telemetry`](crate::telemetry) and its tests.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : u64 ),* $(,)?
        }
        $(#[$ameta:meta])*
        atomic $avis:vis struct $atomic:ident {
            $( $(#[$xmeta:meta])* $xvis:vis $extra:ident : $xty:ty ),* $(,)?
        }
    ) => {
        $crate::counters! {
            $(#[$meta])*
            $vis struct $name { $( $(#[$fmeta])* $fvis $field: u64 ),* }
        }

        $(#[$ameta])*
        #[derive(Debug, Default)]
        $avis struct $atomic {
            $( $(#[$fmeta])* $fvis $field: ::std::sync::atomic::AtomicU64, )*
            $( $(#[$xmeta])* $xvis $extra: $xty, )*
        }

        impl $atomic {
            #[doc = concat!("Point-in-time copy of every counter, as a [`", stringify!($name), "`].")]
            pub fn snapshot(&self) -> $name {
                $name {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : u64 ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: u64, )*
        }

        impl $name {
            /// Number of counters in the set.
            pub const LEN: usize = [$( stringify!($field) ),*].len();

            /// Every counter's name, in declaration order.
            pub const NAMES: [&'static str; Self::LEN] = [$( stringify!($field) ),*];

            /// Every counter's value, in [`NAMES`](Self::NAMES) order.
            pub fn values(&self) -> [u64; Self::LEN] {
                [$( self.$field ),*]
            }

            /// Adds `other` into `self`, counter by counter.
            pub fn add(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
            }
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $crate::wire::Wire::encode(&(Self::LEN as u32), buf);
                <u64 as $crate::wire::Wire>::encode_slice(&self.values(), buf);
            }

            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                let count = <u32 as $crate::wire::Wire>::decode(r)?;
                if count as usize != Self::LEN {
                    return Err($crate::wire::WireError::BadLength(u64::from(count)));
                }
                Ok($name {
                    $( $field: <u64 as $crate::wire::Wire>::decode(r)?, )*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::wire::{Wire, WireError};

    counters! {
        /// Three counters.
        pub struct Three {
            /// First.
            pub a: u64,
            /// Second.
            pub b: u64,
            /// Third.
            pub c: u64,
        }
        /// Three counters, shared, plus a gauge outside the snapshot.
        atomic pub struct ThreeLive {
            /// Not a counter of the set.
            pub gauge: std::sync::atomic::AtomicU64,
        }
    }

    #[test]
    fn names_values_and_add_follow_the_declaration() {
        let mut t = Three { a: 1, b: 2, c: 3 };
        t.add(&Three {
            a: 10,
            b: 20,
            c: 30,
        });
        assert_eq!(Three::NAMES, ["a", "b", "c"]);
        assert_eq!(t.values(), [11, 22, 33]);
    }

    #[test]
    fn snapshot_loads_the_counters_and_leaves_extras_out() {
        use std::sync::atomic::Ordering;
        let live = ThreeLive::default();
        live.b.fetch_add(5, Ordering::Relaxed);
        live.gauge.store(9, Ordering::Relaxed);
        assert_eq!(live.snapshot(), Three { a: 0, b: 5, c: 0 });
    }

    #[test]
    fn wire_form_is_the_vec_form_and_rejects_a_wrong_count() {
        let t = Three {
            a: 1,
            b: u64::MAX,
            c: 3,
        };
        let bytes = t.to_bytes();
        assert_eq!(bytes, vec![1u64, u64::MAX, 3].to_bytes());
        assert_eq!(Three::from_bytes(&bytes), Ok(t));
        for wrong in [vec![1u64, 2], vec![1, 2, 3, 4]] {
            assert_eq!(
                Three::from_bytes(&wrong.to_bytes()),
                Err(WireError::BadLength(wrong.len() as u64))
            );
        }
        // A right count over a short body is truncated, not a panic.
        assert!(matches!(
            Three::from_bytes(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
    }
}
