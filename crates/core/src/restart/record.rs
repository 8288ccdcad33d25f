//! The generation record: what a restart plans from.
//!
//! The paper's coordinator writes a restart shell script with one
//! `ssh <host> dmtcp_restart <images…>` line per host (§3). Here the
//! coordinator publishes the same facts as one typed, versioned record on
//! shared storage — a version byte followed by a [`Snap`]-encoded
//! [`GenRecord`] — and [`RestartPlan`](crate::restart::plan::RestartPlan)
//! decodes it. Nothing renders or parses text.
//!
//! The record lists the last committed image set (published when
//! `CKPT_WRITTEN` releases) or the last restored one (published when
//! `RESTART_REFILLED` releases). It lives on shared storage, so
//! [`transplant_storage`](crate::session::transplant_storage) carries it
//! into a fresh world together with the images.

use crate::session::RestartError;
use oskit::world::{NodeId, World};
use simkit::{impl_snap, Snap};

/// Format version, the record's first byte.
pub const VERSION: u8 = 1;

/// One committed (or restored) generation of a computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRecord {
    /// The generation the listed images were written in.
    pub gen: u64,
    /// `(hostname, image path)` per process, grouped by host in hostname
    /// order, each host's images in the order they were written.
    pub images: Vec<(String, String)>,
}

impl_snap!(struct GenRecord { gen, images });

/// Shared-storage path of the record of the coordinator rooted at `port`.
/// Every coordinator (a dmtcpd shard included) has its own.
pub fn path(port: u16) -> String {
    format!("/shared/dmtcp_gen_{port}.rec")
}

impl GenRecord {
    /// The record for the coordinator's image list (`(path, host)` pairs,
    /// as in [`CoordShared::last_images`](crate::coord::CoordShared)), or
    /// `None` when it is empty. The generation is the newest one named by
    /// the image paths (`…_gen<N>.dmtcp`).
    pub(crate) fn from_images(last_images: &[(String, String)]) -> Option<GenRecord> {
        if last_images.is_empty() {
            return None;
        }
        let mut images: Vec<(String, String)> = last_images
            .iter()
            .map(|(p, h)| (h.clone(), p.clone()))
            .collect();
        // Stable: each host's images keep their write order.
        images.sort_by(|a, b| a.0.cmp(&b.0));
        let gen = images
            .iter()
            .filter_map(|(_, p)| ckptstore::manifest::parse_gen(p))
            .max()
            .map_or(1, u64::from);
        Some(GenRecord { gen, images })
    }

    /// Encode: the version byte, then the snap body.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = vec![VERSION];
        out.extend(self.to_snap_bytes());
        out
    }

    /// Decode bytes written by [`GenRecord::encode`]. Any other input —
    /// empty, truncated, trailing bytes, another version, no images — is
    /// an error naming the defect.
    pub(crate) fn decode(bytes: &[u8]) -> Result<GenRecord, String> {
        let (&version, body) = bytes.split_first().ok_or("empty record")?;
        if version != VERSION {
            return Err(format!("record version {version}, expected {VERSION}"));
        }
        let rec = GenRecord::from_snap_bytes(body).map_err(|e| e.to_string())?;
        if rec.gen == 0 || rec.images.is_empty() {
            return Err("record names no generation".to_string());
        }
        Ok(rec)
    }

    /// Read and decode the record of the coordinator rooted at `port`:
    /// [`RestartError::NoRecord`] when none was ever published,
    /// [`RestartError::BadRecord`] when the bytes do not decode.
    pub fn read(w: &World, port: u16) -> Result<GenRecord, RestartError> {
        let bytes = w
            .shared_fs
            .read_all(&path(port))
            .map_err(|_| RestartError::NoRecord)?;
        GenRecord::decode(&bytes).map_err(|reason| RestartError::BadRecord { reason })
    }

    /// Publish this record for the coordinator on `port`, running on `node`.
    pub(crate) fn write(&self, w: &mut World, node: NodeId, port: u16) {
        let path = path(port);
        w.fs_for_mut(node, &path)
            .write_all(&path, &self.encode())
            .expect("shared fs writable");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GenRecord {
        GenRecord::from_images(&[
            ("/ckpt/ckpt_40002_gen3.dmtcp".into(), "node02".into()),
            ("/ckpt/ckpt_40001_gen3.dmtcp".into(), "node01".into()),
            ("/ckpt/ckpt_40003_gen3.dmtcp".into(), "node02".into()),
        ])
        .expect("non-empty")
    }

    #[test]
    fn groups_by_host_and_names_the_generation() {
        let r = sample();
        assert_eq!(r.gen, 3);
        let hosts: Vec<&str> = r.images.iter().map(|(h, _)| h.as_str()).collect();
        assert_eq!(hosts, ["node01", "node02", "node02"]);
        assert_eq!(r.images[1].1, "/ckpt/ckpt_40002_gen3.dmtcp");
        assert_eq!(GenRecord::from_images(&[]), None);
    }

    #[test]
    fn round_trips() {
        let r = sample();
        assert_eq!(GenRecord::decode(&r.encode()), Ok(r));
    }

    // Garbage, truncated, empty and other-version bytes are covered end to
    // end through `RestartPlan` in `tests/distributed.rs`.
    #[test]
    fn rejects_trailing_bytes_and_empty_records() {
        let mut trailing = sample().encode();
        trailing.push(0);
        assert!(GenRecord::decode(&trailing).is_err());
        let empty = GenRecord {
            gen: 1,
            images: Vec::new(),
        };
        assert!(GenRecord::decode(&empty.encode()).is_err());
    }
}
