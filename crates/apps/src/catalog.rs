//! Name resolution for every surface that takes names from a user or a
//! client — the CLI, the serving protocol, the synthesis sweep and the
//! fleet — so one table decides which boards, applications and
//! communication models exist and what their aliases are.

use icomm_models::{CommModelKind, Workload};
use icomm_soc::DeviceProfile;

use crate::{LaneApp, OrbApp, ShwfsApp};

/// The board names every surface accepts (canonical forms), in
/// [`DeviceProfile::extended_boards`] order.
pub const BOARD_NAMES: [&str; 6] = [
    "nano",
    "tx2",
    "xavier",
    "orin-like",
    "mi300a-like",
    "gh-like",
];

/// The application names every surface accepts.
pub const APP_NAMES: [&str; 3] = ["shwfs", "orb", "lane"];

/// The communication-model names every surface accepts.
pub const MODEL_NAMES: [&str; 5] = ["sc", "um", "zc", "sc+", "upm"];

/// Resolves a board name (case-insensitive, with aliases).
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn board_by_name(name: &str) -> Result<DeviceProfile, String> {
    match name.to_ascii_lowercase().as_str() {
        "nano" | "jetson-nano" => Ok(DeviceProfile::jetson_nano()),
        "tx2" | "jetson-tx2" => Ok(DeviceProfile::jetson_tx2()),
        "xavier" | "agx-xavier" | "jetson-agx-xavier" => Ok(DeviceProfile::jetson_agx_xavier()),
        "orin" | "orin-like" => Ok(DeviceProfile::orin_like()),
        "mi300a" | "mi300a-like" => Ok(DeviceProfile::mi300a_like()),
        "gh" | "gh-like" | "grace-hopper-like" => Ok(DeviceProfile::gh_like()),
        other => Err(format!(
            "unknown board '{other}' (known: {})",
            BOARD_NAMES.join(", ")
        )),
    }
}

/// Builds the workload for an application name (case-insensitive).
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn workload_by_name(app: &str) -> Result<Workload, String> {
    match app.to_ascii_lowercase().as_str() {
        "shwfs" => Ok(ShwfsApp::default().workload()),
        "orb" => Ok(OrbApp::default().workload()),
        "lane" => Ok(LaneApp::default().workload()),
        other => Err(format!(
            "unknown app '{other}' (known: {})",
            APP_NAMES.join(", ")
        )),
    }
}

/// Resolves a communication-model name (case-insensitive, with aliases).
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn model_by_name(name: &str) -> Result<CommModelKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "sc" | "standard-copy" => Ok(CommModelKind::StandardCopy),
        "um" | "unified-memory" => Ok(CommModelKind::UnifiedMemory),
        "zc" | "zero-copy" => Ok(CommModelKind::ZeroCopy),
        "sc+" | "sc-async" | "double-buffered" => Ok(CommModelKind::StandardCopyAsync),
        "upm" | "coherent-upm" | "coherent-unified-memory" => Ok(CommModelKind::CoherentUpm),
        other => Err(format!(
            "unknown model '{other}' (known: {})",
            MODEL_NAMES.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_names_resolve() {
        for name in BOARD_NAMES {
            assert!(board_by_name(name).is_ok(), "board {name}");
        }
        for name in APP_NAMES {
            assert!(workload_by_name(name).is_ok(), "app {name}");
        }
        for name in MODEL_NAMES {
            assert!(model_by_name(name).is_ok(), "model {name}");
        }
    }

    #[test]
    fn board_names_resolve_one_to_one_onto_the_presets() {
        // Same boards, same order: a new preset cannot go missing from
        // the names every surface accepts, and no name resolves twice.
        let resolved: Vec<DeviceProfile> = BOARD_NAMES
            .iter()
            .map(|name| board_by_name(name).expect("catalog board resolves"))
            .collect();
        assert_eq!(resolved, DeviceProfile::extended_boards());
    }

    #[test]
    fn board_aliases_resolve() {
        assert!(board_by_name("Xavier").is_ok());
        assert!(board_by_name("jetson-agx-xavier").is_ok());
        assert!(board_by_name("ORIN").is_ok());
        assert!(board_by_name("MI300A").is_ok());
        assert!(board_by_name("grace-hopper-like").is_ok());
        assert!(board_by_name("nope").is_err());
    }

    #[test]
    fn workloads_resolve() {
        assert!(workload_by_name("shwfs").unwrap().name.contains("shwfs"));
        assert!(workload_by_name("orb").unwrap().name.contains("orb"));
        assert!(workload_by_name("lane").unwrap().name.contains("lane"));
    }

    #[test]
    fn unknown_names_list_valid_ones() {
        let err = board_by_name("pi5").unwrap_err();
        assert!(err.contains("nano") && err.contains("orin-like"), "{err}");
        let err = workload_by_name("doom").unwrap_err();
        assert!(err.contains("shwfs") && err.contains("lane"), "{err}");
        let err = model_by_name("warp").unwrap_err();
        assert!(err.contains("sc") && err.contains("zc"), "{err}");
    }

    #[test]
    fn unknown_app_lists_valid_names() {
        let err = workload_by_name("quake").unwrap_err();
        assert!(err.contains("unknown app 'quake'"), "{err}");
        for name in APP_NAMES {
            assert!(err.contains(name), "missing {name} in: {err}");
        }
    }

    #[test]
    fn unknown_board_lists_valid_names() {
        let err = board_by_name("pi5").unwrap_err();
        assert!(err.contains("unknown board 'pi5'"), "{err}");
        for name in BOARD_NAMES {
            assert!(err.contains(name), "missing {name} in: {err}");
        }
    }
}
