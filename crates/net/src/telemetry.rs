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
//! A field also declares whether it repeats between two runs of one
//! program under one synchronisation order, by the condition under which
//! it stops: unmarked, it always repeats; `#[timing]` after its doc
//! comment, host scheduling moves it; `#[sharing]`, it moves where two
//! processes write one page in one epoch.  `schedule_free(sharing)` is the
//! set with the fields that condition drops zeroed, so a run-to-run
//! comparison is one `assert_eq!`.  A class changes no name, value or byte.
//!
//! It is a compile-time declaration, not a registry: a counter is a field,
//! so a bump costs what it did before.

/// Declares a counter set: `pub struct Name { /// doc
/// [#[timing] | #[sharing]] pub field: u64, ... }`, optionally followed by
/// `atomic pub struct Twin { extra: Type, ... }`; see
/// [`telemetry`](crate::telemetry) and its tests.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident { $($fields:tt)* }
        $($(#[$ameta:meta])* atomic $avis:vis struct $atomic:ident { $($extras:tt)* })?
    ) => {
        $crate::counters! {
            @class [$(#[$meta])* $vis struct $name]
            [$($(#[$ameta])* $avis struct $atomic { $($extras)* })?]
            []
            $($fields)*
        }
    };

    // Each field in turn: its class out of its attributes, into the list.
    (@class $head:tt $twin:tt [$($done:tt)*]) => {
        $crate::counters! { @emit $head $twin $($done)* }
    };
    (@class $head:tt $twin:tt [$($done:tt)*]
        $(#[doc = $doc:literal])* #[timing] $fvis:vis $field:ident : u64 $(, $($rest:tt)*)?
    ) => {
        $crate::counters! {
            @class $head $twin [$($done)* {[$(#[doc = $doc])*] $fvis $field Timing}] $($($rest)*)?
        }
    };
    (@class $head:tt $twin:tt [$($done:tt)*]
        $(#[doc = $doc:literal])* #[sharing] $fvis:vis $field:ident : u64 $(, $($rest:tt)*)?
    ) => {
        $crate::counters! {
            @class $head $twin [$($done)* {[$(#[doc = $doc])*] $fvis $field Sharing}] $($($rest)*)?
        }
    };
    (@class $head:tt $twin:tt [$($done:tt)*]
        $(#[$fmeta:meta])* $fvis:vis $field:ident : u64 $(, $($rest:tt)*)?
    ) => {
        $crate::counters! {
            @class $head $twin [$($done)* {[$(#[$fmeta])*] $fvis $field Never}] $($($rest)*)?
        }
    };

    (@keep Never $value:expr, $sharing:ident) => { $value };
    (@keep Timing $value:expr, $sharing:ident) => { 0 };
    (@keep Sharing $value:expr, $sharing:ident) => { if $sharing { 0 } else { $value } };

    (@emit [$(#[$meta:meta])* $vis:vis struct $name:ident]
        [$(#[$ameta:meta])* $avis:vis struct $atomic:ident {
            $( $(#[$xmeta:meta])* $xvis:vis $extra:ident : $xty:ty ),* $(,)?
        }]
        $({[$(#[$fmeta:meta])*] $fvis:vis $field:ident $class:ident})*
    ) => {
        $crate::counters! {
            @emit [$(#[$meta])* $vis struct $name] []
            $({[$(#[$fmeta])*] $fvis $field $class})*
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
    (@emit [$(#[$meta:meta])* $vis:vis struct $name:ident] []
        $({[$(#[$fmeta:meta])*] $fvis:vis $field:ident $class:ident})*
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

            /// The set with every counter zeroed that does not repeat
            /// between two runs of one program under one synchronisation
            /// order: the `#[timing]` ones, and the `#[sharing]` ones when
            /// `sharing` (two processes write one page in one epoch).
            #[allow(unused_variables)] // Unused in a set with no `#[sharing]` field.
            pub fn schedule_free(&self, sharing: bool) -> Self {
                $name { $( $field: $crate::counters!(@keep $class self.$field, sharing), )* }
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
            #[sharing]
            pub b: u64,
            /// Third.
            #[timing]
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
    fn schedule_free_zeroes_what_each_condition_drops() {
        let t = Three { a: 1, b: 2, c: 3 };
        assert_eq!(t.schedule_free(false), Three { a: 1, b: 2, c: 0 });
        assert_eq!(t.schedule_free(true), Three { a: 1, b: 0, c: 0 });
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
