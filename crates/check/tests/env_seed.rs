//! The `DINOMO_CHECK_SEED` override, in a file of its own: each
//! integration-test file is a separate process, and this is its **only**
//! test, so the `set_var` below cannot race a `getenv` on another thread
//! (undefined behavior on glibc). Keep it that way. That a set but
//! unparsable value panics is unit-tested on the private parser.

use dinomo_check::driver::CheckConfig;

#[test]
fn dinomo_check_seed_env_var_overrides_the_seed() {
    std::env::set_var("DINOMO_CHECK_SEED", "123456789");
    assert_eq!(CheckConfig::env_seed(), Some(123456789));
    std::env::remove_var("DINOMO_CHECK_SEED");
    assert_eq!(CheckConfig::env_seed(), None);
}
