//! Accelerator configuration: the building-block selection of Fig. 3.
//!
//! A [`AcceleratorConfig`] picks one module per tier (distribution network,
//! multiplier network, reduction network, memory controller) plus the
//! sizing parameters (multiplier count, bandwidths, Global Buffer size).
//! The presets of Table IV — TPU-like, MAERI-like and SIGMA-like — are
//! provided as constructors.

use serde::{Deserialize, Serialize};
use std::fmt;
use stonne_dram::DramConfig;

/// Distribution-network topology (GB → multipliers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DnKind {
    /// MAERI-style binary distribution tree (unicast/multicast/broadcast).
    Tree,
    /// SIGMA-style Benes non-blocking N×N network.
    Benes,
    /// Point-to-point links feeding a systolic array edge.
    PointToPoint,
}

/// Multiplier-network topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MnKind {
    /// Linear network with forwarding links between neighbours (TPU, MAERI).
    Linear,
    /// No forwarding links; pure GEMM multipliers (SIGMA, SpArch).
    Disabled,
}

/// Reduction-network topology (multipliers → GB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RnKind {
    /// Augmented reduction tree with 3:1 adders and horizontal links (MAERI).
    Art,
    /// ART with an accumulation buffer at the collection point.
    ArtAcc,
    /// Forwarding adder network with 2:1 adders (SIGMA).
    Fan,
    /// Linear (systolic) reduction, as in TPU/Eyeriss/ShiDianNao.
    Linear,
}

/// Memory-controller kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControllerKind {
    /// mRNA-style dense controller with a fixed tile partition.
    Dense,
    /// Sparse GEMM controller (bitmap/CSR operands, variable clusters).
    Sparse,
}

/// Loop-ordering dataflow of the dense controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Weights resident in the array; inputs/psums stream.
    WeightStationary,
    /// Outputs resident; weights and inputs stream (TPU-like OS array).
    OutputStationary,
    /// Inputs resident; weights stream.
    InputStationary,
}

/// Sparse operand encoding accepted by the sparse controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SparseFormat {
    /// Compressed sparse row.
    Csr,
    /// Bitmap + packed non-zero values.
    Bitmap,
}

/// Error returned when a configuration combines incompatible modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid accelerator configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Complete accelerator description (the `stonne_hw.cfg` of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Human-readable name (reported in the stats output).
    pub name: String,
    /// Number of multiplier switches (processing elements).
    pub ms_size: usize,
    /// Global-buffer read bandwidth in elements/cycle (DN injection rate).
    pub dn_bandwidth: usize,
    /// Global-buffer write bandwidth in elements/cycle (RN collection rate).
    pub rn_bandwidth: usize,
    /// Global-buffer capacity in KiB (108 KiB in the paper's use cases).
    pub gb_size_kib: usize,
    /// Distribution network.
    pub dn: DnKind,
    /// Multiplier network.
    pub mn: MnKind,
    /// Reduction network.
    pub rn: RnKind,
    /// Memory controller.
    pub controller: ControllerKind,
    /// Dense-controller dataflow.
    pub dataflow: Dataflow,
    /// Sparse operand format.
    pub sparse_format: SparseFormat,
    /// Whether the sparse controller also exploits zeros in the streaming
    /// (activation) operand: zero inputs are neither delivered nor
    /// multiplied. SIGMA supports dual-sided sparsity; the paper's
    /// evaluation exercises weight sparsity, so the presets default to
    /// `false`.
    pub exploit_activation_sparsity: bool,
    /// Off-chip memory configuration.
    pub dram: DramConfig,
    /// Whether to model DRAM stalls (the paper's use cases size HBM2 so
    /// double buffering hides them; disable to isolate on-chip behaviour).
    pub model_dram: bool,
}

impl AcceleratorConfig {
    /// TPU-like preset (Table IV): output-stationary systolic array of
    /// `pe_dim × pe_dim` PEs with point-to-point links, linear MN and
    /// linear RN. The TPU requires full bandwidth, so both bandwidths are
    /// set to `2 * pe_dim` (one operand per edge per cycle).
    pub fn tpu_like(pe_dim: usize) -> Self {
        Self {
            name: format!("TPU-like {pe_dim}x{pe_dim}"),
            ms_size: pe_dim * pe_dim,
            dn_bandwidth: 2 * pe_dim,
            rn_bandwidth: pe_dim,
            gb_size_kib: 108,
            dn: DnKind::PointToPoint,
            mn: MnKind::Linear,
            rn: RnKind::Linear,
            controller: ControllerKind::Dense,
            dataflow: Dataflow::OutputStationary,
            sparse_format: SparseFormat::Bitmap,
            exploit_activation_sparsity: false,
            dram: DramConfig::hbm2_dual(),
            model_dram: false,
        }
    }

    /// MAERI-like preset (Table IV): distribution tree + linear MN + ART.
    pub fn maeri_like(ms_size: usize, bandwidth: usize) -> Self {
        Self {
            name: format!("MAERI-like {ms_size}ms"),
            ms_size,
            dn_bandwidth: bandwidth,
            rn_bandwidth: bandwidth,
            gb_size_kib: 108,
            dn: DnKind::Tree,
            mn: MnKind::Linear,
            rn: RnKind::ArtAcc,
            controller: ControllerKind::Dense,
            dataflow: Dataflow::WeightStationary,
            sparse_format: SparseFormat::Bitmap,
            exploit_activation_sparsity: false,
            dram: DramConfig::hbm2_dual(),
            model_dram: false,
        }
    }

    /// SIGMA-like preset (Table IV): Benes + disabled MN + FAN + sparse
    /// controller.
    pub fn sigma_like(ms_size: usize, bandwidth: usize) -> Self {
        Self {
            name: format!("SIGMA-like {ms_size}ms"),
            ms_size,
            dn_bandwidth: bandwidth,
            rn_bandwidth: bandwidth,
            gb_size_kib: 108,
            dn: DnKind::Benes,
            mn: MnKind::Disabled,
            rn: RnKind::Fan,
            controller: ControllerKind::Sparse,
            dataflow: Dataflow::WeightStationary,
            sparse_format: SparseFormat::Bitmap,
            exploit_activation_sparsity: false,
            dram: DramConfig::hbm2_dual(),
            model_dram: false,
        }
    }

    /// Enables DRAM-stall modelling.
    pub fn with_dram_modeling(mut self, on: bool) -> Self {
        self.model_dram = on;
        self
    }

    /// Side length when the MS array is treated as a square systolic array.
    ///
    /// # Panics
    ///
    /// Panics if `ms_size` is not a perfect square (required by the
    /// point-to-point systolic composition).
    pub fn pe_dim(&self) -> usize {
        let dim = (self.ms_size as f64).sqrt().round() as usize;
        assert_eq!(dim * dim, self.ms_size, "systolic array must be square");
        dim
    }

    /// Validates module compatibility (the paper: "the configured memory
    /// controller must always be compatible with the hardware substrate").
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when sizes are zero, the sparse controller
    /// is paired with a forwarding MN or linear RN, or a systolic DN is
    /// paired with a non-dense controller.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ms_size == 0 {
            return Err(ConfigError("ms_size must be positive".into()));
        }
        if self.dn_bandwidth == 0 || self.rn_bandwidth == 0 {
            return Err(ConfigError("bandwidth must be positive".into()));
        }
        if self.gb_size_kib == 0 {
            return Err(ConfigError("global buffer must be non-empty".into()));
        }
        match self.controller {
            ControllerKind::Sparse => {
                if self.rn == RnKind::Linear {
                    return Err(ConfigError(
                        "sparse controller needs a cluster-capable RN (ART/FAN)".into(),
                    ));
                }
                if self.dn == DnKind::PointToPoint {
                    return Err(ConfigError(
                        "sparse controller needs multicast delivery (tree/Benes)".into(),
                    ));
                }
            }
            ControllerKind::Dense => {
                if self.dn == DnKind::PointToPoint {
                    let dim = (self.ms_size as f64).sqrt().round() as usize;
                    if dim * dim != self.ms_size {
                        return Err(ConfigError(
                            "point-to-point systolic composition needs a square MS array".into(),
                        ));
                    }
                    if self.dataflow != Dataflow::OutputStationary {
                        return Err(ConfigError(
                            "the systolic composition implements the output-stationary dataflow"
                                .into(),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Global-buffer capacity in elements.
    pub fn gb_capacity_elements(&self) -> usize {
        self.gb_size_kib * 1024 / self.dram.element_bytes
    }

    /// Serializes to the simple `key = value` hardware-configuration file
    /// format (the `stonne_hw.cfg` the paper's front-end passes around).
    pub fn to_cfg_string(&self) -> String {
        format!(
            "# STONNE hardware configuration\n\
             name = {}\n\
             ms_size = {}\n\
             dn_bandwidth = {}\n\
             rn_bandwidth = {}\n\
             gb_size_kib = {}\n\
             dn = {:?}\n\
             mn = {:?}\n\
             rn = {:?}\n\
             controller = {:?}\n\
             dataflow = {:?}\n\
             sparse_format = {:?}\n\
             exploit_activation_sparsity = {}\n",
            self.name,
            self.ms_size,
            self.dn_bandwidth,
            self.rn_bandwidth,
            self.gb_size_kib,
            self.dn,
            self.mn,
            self.rn,
            self.controller,
            self.dataflow,
            self.sparse_format,
            self.exploit_activation_sparsity,
        )
    }

    /// Parses a `key = value` hardware-configuration string produced by
    /// [`Self::to_cfg_string`] (unknown keys are ignored, missing keys keep
    /// the MAERI-like defaults).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on malformed numeric values or unknown
    /// module names.
    pub fn from_cfg_string(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = AcceleratorConfig::maeri_like(256, 128);
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            let parse_num = |v: &str| -> Result<usize, ConfigError> {
                v.parse()
                    .map_err(|_| ConfigError(format!("bad number for {key}: {v}")))
            };
            match key {
                "name" => cfg.name = value.to_owned(),
                "ms_size" => cfg.ms_size = parse_num(value)?,
                "dn_bandwidth" => cfg.dn_bandwidth = parse_num(value)?,
                "rn_bandwidth" => cfg.rn_bandwidth = parse_num(value)?,
                "gb_size_kib" => cfg.gb_size_kib = parse_num(value)?,
                "dn" => {
                    cfg.dn = match value {
                        "Tree" => DnKind::Tree,
                        "Benes" => DnKind::Benes,
                        "PointToPoint" => DnKind::PointToPoint,
                        other => return Err(ConfigError(format!("unknown dn {other}"))),
                    }
                }
                "mn" => {
                    cfg.mn = match value {
                        "Linear" => MnKind::Linear,
                        "Disabled" => MnKind::Disabled,
                        other => return Err(ConfigError(format!("unknown mn {other}"))),
                    }
                }
                "rn" => {
                    cfg.rn = match value {
                        "Art" => RnKind::Art,
                        "ArtAcc" => RnKind::ArtAcc,
                        "Fan" => RnKind::Fan,
                        "Linear" => RnKind::Linear,
                        other => return Err(ConfigError(format!("unknown rn {other}"))),
                    }
                }
                "controller" => {
                    cfg.controller = match value {
                        "Dense" => ControllerKind::Dense,
                        "Sparse" => ControllerKind::Sparse,
                        other => return Err(ConfigError(format!("unknown controller {other}"))),
                    }
                }
                "dataflow" => {
                    cfg.dataflow = match value {
                        "WeightStationary" => Dataflow::WeightStationary,
                        "OutputStationary" => Dataflow::OutputStationary,
                        "InputStationary" => Dataflow::InputStationary,
                        other => return Err(ConfigError(format!("unknown dataflow {other}"))),
                    }
                }
                "sparse_format" => {
                    cfg.sparse_format = match value {
                        "Csr" => SparseFormat::Csr,
                        "Bitmap" => SparseFormat::Bitmap,
                        other => return Err(ConfigError(format!("unknown format {other}"))),
                    }
                }
                "exploit_activation_sparsity" => {
                    cfg.exploit_activation_sparsity = value
                        .parse()
                        .map_err(|_| ConfigError(format!("bad bool for {key}: {value}")))?;
                }
                _ => {}
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table4() {
        let tpu = AcceleratorConfig::tpu_like(16);
        assert_eq!(tpu.dn, DnKind::PointToPoint);
        assert_eq!(tpu.mn, MnKind::Linear);
        assert_eq!(tpu.rn, RnKind::Linear);
        assert_eq!(tpu.controller, ControllerKind::Dense);

        let maeri = AcceleratorConfig::maeri_like(256, 128);
        assert_eq!(maeri.dn, DnKind::Tree);
        assert_eq!(maeri.mn, MnKind::Linear);
        assert!(matches!(maeri.rn, RnKind::Art | RnKind::ArtAcc));

        let sigma = AcceleratorConfig::sigma_like(256, 128);
        assert_eq!(sigma.dn, DnKind::Benes);
        assert_eq!(sigma.mn, MnKind::Disabled);
        assert_eq!(sigma.rn, RnKind::Fan);
        assert_eq!(sigma.controller, ControllerKind::Sparse);
    }

    #[test]
    fn presets_validate() {
        AcceleratorConfig::tpu_like(16).validate().unwrap();
        AcceleratorConfig::maeri_like(256, 128).validate().unwrap();
        AcceleratorConfig::sigma_like(128, 128).validate().unwrap();
    }

    #[test]
    fn sparse_with_linear_rn_is_rejected() {
        let mut cfg = AcceleratorConfig::sigma_like(128, 128);
        cfg.rn = RnKind::Linear;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_square_systolic_is_rejected() {
        let mut cfg = AcceleratorConfig::tpu_like(16);
        cfg.ms_size = 200;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_bandwidth_is_rejected() {
        let mut cfg = AcceleratorConfig::maeri_like(64, 16);
        cfg.dn_bandwidth = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn cfg_string_roundtrip() {
        let mut cfg = AcceleratorConfig::sigma_like(128, 64);
        cfg.exploit_activation_sparsity = true;
        let parsed = AcceleratorConfig::from_cfg_string(&cfg.to_cfg_string()).unwrap();
        assert!(parsed.exploit_activation_sparsity);
        assert_eq!(parsed.ms_size, 128);
        assert_eq!(parsed.dn_bandwidth, 64);
        assert_eq!(parsed.dn, DnKind::Benes);
        assert_eq!(parsed.controller, ControllerKind::Sparse);
    }

    #[test]
    fn cfg_string_rejects_garbage_module() {
        let err = AcceleratorConfig::from_cfg_string("dn = Hypercube\n");
        assert!(err.is_err());
    }

    #[test]
    fn pe_dim_of_square_array() {
        assert_eq!(AcceleratorConfig::tpu_like(16).pe_dim(), 16);
    }
}
