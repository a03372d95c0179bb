//! Block-cache configuration.

/// Configuration for the basic-block cache baseline: where its SRAM
/// cache lies.
///
/// Defaults follow the paper's best-effort port (§4): the entire SRAM is
/// reserved for caching application code, while runtime metadata (exit
/// words, jump table, hash table) lives in FRAM at [`crate::TABLES_BASE`]
/// — the placement the authors found fastest on this platform. The trap
/// ([`crate::TRAP_ADDR`]) and the runtime's code window
/// ([`crate::HANDLER_CODE_BASE`]) are fixed too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockConfig {
    /// First SRAM address of the block cache.
    pub cache_base: u16,
    /// Size of the block cache in bytes.
    pub cache_size: u16,
}

impl BlockConfig {
    /// The paper's configuration on the FR2355.
    pub fn unified_fr2355() -> BlockConfig {
        BlockConfig {
            cache_base: 0x2000,
            cache_size: 0x1000,
        }
    }

    /// Split-SRAM configuration (§5.5): low `data_bytes` of SRAM for data,
    /// remainder for the block cache.
    pub fn split_fr2355(data_bytes: u16) -> BlockConfig {
        let base = 0x2000 + data_bytes;
        BlockConfig { cache_base: base, cache_size: 0x3000 - base }
    }
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig::unified_fr2355()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = BlockConfig::unified_fr2355();
        assert_eq!(c.cache_size, 0x1000);
        assert_ne!(crate::TRAP_ADDR, 0x0F00, "distinct from the SwapRAM trap");
    }
}
