//! Vendored offline stand-in for the crates.io `proptest` crate.
//!
//! See `README.md`: only the API subset used by this workspace is
//! provided, generation is deterministic (fixed seed, fixed case count),
//! and there is no shrinking.

#![forbid(unsafe_code)]

pub mod collection;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

/// Number of cases each `proptest!` property runs.
pub const CASES: usize = 64;

/// Runs one property body over `CASES` generated cases.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     // In real code this carries #[test]; attributes are passed through.
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes();
/// ```
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut prng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for _case in 0..$crate::CASES {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut prng);)+
                    $body
                }
            }
        )*
    };
}

/// Chooses uniformly between several strategies producing the same value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// `assert!` under a property: panics (no shrinking in the stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a property: panics (no shrinking in the stand-in).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}
