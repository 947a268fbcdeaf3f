//! # pds-sync — the tutorial's "Perspectives": deployed instances of the
//! asymmetric architecture
//!
//! The closing part of the EDBT'14 tutorial sketches three concrete
//! instances of "alternative global architectures relying on secure
//! hardware", all built here:
//!
//! * [`folder`] — the **Personal Social-Medical Folder** field
//!   experiment: each patient owns her medical-social folder in a secure
//!   token at home; practitioners work against a central server; the two
//!   are "synchronized *without Internet connection*" by smart badges
//!   physically carried between sites. Entries are author-sequenced, so
//!   synchronization is a convergent set union — no entry is ever
//!   re-entered, no network link required.
//! * [`folkis`] — **Folk-enabled Information Systems** for least
//!   developed countries: "no infrastructure required, a delay-tolerant
//!   network is established" — participants physically carry encrypted
//!   bundles and exchange them on contact (epidemic store-and-forward).
//!   The E12 experiment measures delivery ratio and latency against
//!   population density.
//! * [`cells`] — the **Trusted Cells** vision: the secure devices around
//!   one individual replicate their encrypted state through an untrusted
//!   cloud, which stores ciphertext and resolves nothing ("using the
//!   cloud as a storage service for encrypted data").

pub mod cells;
pub mod folder;
pub mod folkis;

pub use cells::{serve_cloud, CellMsg, CellSyncReport, TrustedCell};
pub use folder::{Badge, CentralServer, EhrEntry, MedicalFolder};
pub use folkis::{FolkSim, FolkSimConfig, FolkStats};
