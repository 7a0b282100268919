//! Multi-GPU contexts: the device list a multi-GPU run spreads over.
//!
//! Setup 1 of the paper has eight GTX 1080 Ti boards; "In the multi-GPU model, the
//! batch size is equal for all devices to ensure a fair workload" (§3.1). The
//! sharding itself lives with the scheduler in `gk-core` (round-robin chunks, or
//! [`crate::topology::weighted_partition`] spans when topology-aware).

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// A set of identical devices working on the same filtering workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiGpu {
    devices: Vec<DeviceSpec>,
}

impl MultiGpu {
    /// Creates a multi-GPU context with `count` copies of `device`.
    pub fn homogeneous(device: DeviceSpec, count: usize) -> MultiGpu {
        assert!(count >= 1, "a multi-GPU context needs at least one device");
        MultiGpu {
            devices: vec![device; count],
        }
    }

    /// Creates a context from an explicit device list.
    pub fn from_devices(devices: Vec<DeviceSpec>) -> MultiGpu {
        assert!(
            !devices.is_empty(),
            "a multi-GPU context needs at least one device"
        );
        MultiGpu { devices }
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The devices.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_contexts_keep_device_order() {
        let ctx = MultiGpu::from_devices(vec![DeviceSpec::gtx_1080_ti(), DeviceSpec::tesla_k20x()]);
        assert_eq!(ctx.device_count(), 2);
        assert_eq!(ctx.devices()[1].name, "Tesla K20X");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_context_panics() {
        MultiGpu::homogeneous(DeviceSpec::gtx_1080_ti(), 0);
    }
}
