//! Integer environment knobs (`RAZORBUS_CYCLES`, `RAZORBUS_THREADS`,
//! ...), parsed one way everywhere: unset means the caller's default;
//! a set value below the knob's minimum or not an integer is refused by
//! name, never silently read as the default.

use std::env::VarError;
use std::fmt::Display;
use std::str::FromStr;

/// Parses the value of the integer knob `name`: unset is `Ok(None)`;
/// anything set must parse as an integer no smaller than `min`
/// (surrounding whitespace allowed).
///
/// ```
/// use razorbus_core::parse_knob;
/// use std::env::VarError;
///
/// assert_eq!(parse_knob::<u64>("N", Err(VarError::NotPresent), 1), Ok(None));
/// assert_eq!(parse_knob::<u64>("N", Ok(" 4 ".into()), 1), Ok(Some(4)));
/// assert!(parse_knob::<u64>("N", Ok("0".into()), 1).unwrap_err().contains("N"));
/// assert!(parse_knob::<u64>("N", Ok("abc".into()), 0).is_err());
/// ```
///
/// # Errors
///
/// Names the knob, its minimum and the value it holds.
pub fn parse_knob<T: FromStr + PartialOrd + Display>(
    name: &str,
    var: Result<String, VarError>,
    min: T,
) -> Result<Option<T>, String> {
    let refuse = |raw: &dyn std::fmt::Debug| {
        format!("{name} must be an integer of at least {min}, got {raw:?}")
    };
    match var {
        Err(VarError::NotPresent) => Ok(None),
        Err(VarError::NotUnicode(raw)) => Err(refuse(&raw)),
        Ok(s) => match s.trim().parse::<T>() {
            Ok(v) if v >= min => Ok(Some(v)),
            _ => Err(refuse(&s)),
        },
    }
}

/// [`parse_knob`] over the process environment.
///
/// # Errors
///
/// As [`parse_knob`].
pub fn env_knob<T: FromStr + PartialOrd + Display>(
    name: &str,
    min: T,
) -> Result<Option<T>, String> {
    parse_knob(name, std::env::var(name), min)
}
