//! Compact binary serialization of vector DDs.
//!
//! A state DD is often exponentially smaller than its amplitude array —
//! persisting the *diagram* instead of the vector keeps that advantage on
//! disk (GHZ over 30 qubits: ~2 KB instead of 16 GB). Nodes are written in
//! bottom-up topological order with renumbered ids, weights as raw `f64`
//! pairs; loading re-interns weights and rebuilds nodes through the unique
//! table, so a loaded DD is canonical in its destination package (which may
//! already contain other states).
//!
//! Format (little-endian):
//! ```text
//! magic "QDDV1\0"  | u32 qubit count | u32 node count
//! per node: u8 level, then 2 x (u32 child_ref, f64 re, f64 im)
//! root: u32 node_ref, f64 re, f64 im
//! ```
//! `child_ref`: 0 = terminal, k = (k-1)-th previously written node.

use crate::fxhash::FxHashMap;
use crate::node::{VEdge, TERM};
use crate::package::DdPackage;
use qcircuit::Complex64;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 6] = b"QDDV1\0";

/// Writes a vector DD to `w`.
pub fn write_vector_dd(
    pkg: &DdPackage,
    root: VEdge,
    n: usize,
    w: &mut impl Write,
) -> io::Result<()> {
    // Topological (children-first) ordering via DFS post-order.
    let mut order: Vec<u32> = Vec::new();
    let mut seen: FxHashMap<u32, ()> = FxHashMap::default();
    fn visit(pkg: &DdPackage, id: u32, seen: &mut FxHashMap<u32, ()>, order: &mut Vec<u32>) {
        if id == TERM || seen.insert(id, ()).is_some() {
            return;
        }
        let node = pkg.v_node(id);
        visit(pkg, node.e[0].n, seen, order);
        visit(pkg, node.e[1].n, seen, order);
        order.push(id);
    }
    if !root.is_zero() {
        visit(pkg, root.n, &mut seen, &mut order);
    }

    let mut renum: FxHashMap<u32, u32> = FxHashMap::default();
    w.write_all(MAGIC)?;
    w.write_all(&(n as u32).to_le_bytes())?;
    w.write_all(&(order.len() as u32).to_le_bytes())?;
    for (new_id, &id) in order.iter().enumerate() {
        renum.insert(id, new_id as u32 + 1);
        let node = pkg.v_node(id);
        w.write_all(&[node.level])?;
        for e in node.e {
            let child_ref = if e.n == TERM {
                0
            } else {
                // Post-order guarantees children precede parents; a miss
                // means the DD is malformed (e.g. a dangling edge after a
                // stray GC) — report it instead of panicking on the index.
                *renum
                    .get(&e.n)
                    .ok_or_else(|| bad("child node not reachable in topological order"))?
            };
            let weight = pkg.cval(e.w);
            w.write_all(&child_ref.to_le_bytes())?;
            w.write_all(&weight.re.to_le_bytes())?;
            w.write_all(&weight.im.to_le_bytes())?;
        }
    }
    let root_ref = if root.is_zero() || root.n == TERM {
        0
    } else {
        *renum
            .get(&root.n)
            .ok_or_else(|| bad("root node missing from topological order"))?
    };
    let root_w = pkg.cval(root.w);
    w.write_all(&root_ref.to_le_bytes())?;
    w.write_all(&root_w.re.to_le_bytes())?;
    w.write_all(&root_w.im.to_le_bytes())?;
    Ok(())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads a vector DD from `r` into `pkg`. Returns `(root, qubit_count)`.
pub fn read_vector_dd(pkg: &mut DdPackage, r: &mut impl Read) -> io::Result<(VEdge, usize)> {
    let mut magic = [0u8; 6];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a QDDV1 stream"));
    }
    let n = read_u32(r)? as usize;
    let count = read_u32(r)? as usize;
    if n == 0 || n > 64 {
        return Err(bad("implausible qubit count"));
    }
    // A state DD over n qubits has at most 2^n - 1 nodes; a count of 2^n
    // or more can only come from corruption. Checked in u64 (so the bound
    // applies for every n up to 63; a u32 count can't exceed it for
    // n >= 33 anyway) *before* any allocation so a bogus 4-billion count
    // cannot OOM the loader, and the initial reservation is additionally
    // capped — the stream itself (49 bytes per node) naturally bounds
    // growth from there.
    if n < 64 && count as u64 >= 1u64 << n {
        return Err(bad("node count exceeds the 2^n - 1 bound"));
    }
    let mut edges: Vec<VEdge> = Vec::with_capacity(count.min(1 << 16) + 1);
    let mut levels: Vec<u8> = Vec::with_capacity(count.min(1 << 16) + 1);
    // Slot 0 = terminal with weight folded at use sites.
    for k in 0..count {
        let mut level = [0u8; 1];
        r.read_exact(&mut level)?;
        if usize::from(level[0]) >= n {
            return Err(bad("node level out of range for qubit count"));
        }
        let mut child = [VEdge::ZERO; 2];
        for c in child.iter_mut() {
            let child_ref = read_u32(r)? as usize;
            let re = read_f64(r)?;
            let im = read_f64(r)?;
            let weight = Complex64::new(re, im);
            if !re.is_finite() || !im.is_finite() {
                return Err(bad("non-finite weight"));
            }
            *c = if weight.is_zero() {
                VEdge::ZERO
            } else if child_ref == 0 {
                VEdge::terminal(pkg.clookup(weight))
            } else if child_ref <= k {
                // A well-formed DD is ordered: children live strictly
                // below their parent. A violation would silently mis-link
                // the rebuilt diagram, so reject it here.
                if levels[child_ref - 1] >= level[0] {
                    return Err(bad("child level not below parent level"));
                }
                let base = edges[child_ref - 1];
                let wi = pkg.clookup(weight);
                pkg.scale_v(base, wi)
            } else {
                return Err(bad("forward reference in node stream"));
            };
        }
        let rebuilt = pkg.make_vnode(level[0], child);
        edges.push(rebuilt);
        levels.push(level[0]);
    }
    let root_ref = read_u32(r)? as usize;
    let re = read_f64(r)?;
    let im = read_f64(r)?;
    let weight = Complex64::new(re, im);
    let root = if weight.is_zero() {
        VEdge::ZERO
    } else if root_ref == 0 {
        VEdge::terminal(pkg.clookup(weight))
    } else if root_ref <= edges.len() {
        let base = edges[root_ref - 1];
        // The stored per-node weights were the *original* outgoing weights;
        // rebuilding renormalizes, so fold the correction: base already
        // carries the rebuilt top factor. Multiply by stored root weight
        // and divide by nothing — the normalization of the original DD
        // guarantees the factors agree up to the canonical form.
        let wi = pkg.clookup(weight);
        pkg.scale_v(base, wi)
    } else {
        return Err(bad("bad root reference"));
    };
    Ok((root, n))
}

/// Convenience: serialize to a byte vector.
pub fn vector_dd_to_bytes(pkg: &DdPackage, root: VEdge, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    write_vector_dd(pkg, root, n, &mut buf)?;
    Ok(buf)
}

/// Convenience: deserialize from a byte slice.
pub fn vector_dd_from_bytes(pkg: &mut DdPackage, bytes: &[u8]) -> io::Result<(VEdge, usize)> {
    read_vector_dd(pkg, &mut io::Cursor::new(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::state_distance;
    use qcircuit::generators;

    fn state_dd(c: &qcircuit::Circuit) -> (DdPackage, VEdge) {
        let pkg = DdPackage::default();
        let mut s = pkg.basis_state(c.num_qubits(), 0);
        for g in c.iter() {
            s = pkg.apply_gate(s, g, c.num_qubits());
        }
        (pkg, s)
    }

    #[test]
    fn round_trip_across_packages() {
        for c in [
            generators::ghz(8),
            generators::w_state(7),
            generators::dnn(6, 2, 3),
            generators::qft(6),
        ] {
            let n = c.num_qubits();
            let (pkg, s) = state_dd(&c);
            let bytes = vector_dd_to_bytes(&pkg, s, n).unwrap();
            let mut pkg2 = DdPackage::default();
            let (loaded, n2) = vector_dd_from_bytes(&mut pkg2, &bytes).unwrap();
            assert_eq!(n2, n);
            let a = pkg.vector_to_array(s, n);
            let b = pkg2.vector_to_array(loaded, n);
            assert!(state_distance(&a, &b) < 1e-9, "{}", c.name());
        }
    }

    #[test]
    fn serialized_ghz_is_tiny() {
        let (pkg, s) = state_dd(&generators::ghz(20));
        let bytes = vector_dd_to_bytes(&pkg, s, 20).unwrap();
        // 39 nodes x 49 bytes + header + root << the 16 MB amplitude array.
        assert!(
            bytes.len() < 4096,
            "GHZ-20 serialized to {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn loading_into_a_populated_package_shares_structure() {
        let (pkg, s) = state_dd(&generators::ghz(6));
        let bytes = vector_dd_to_bytes(&pkg, s, 6).unwrap();
        // Destination already contains the same state: loading must not
        // create duplicate nodes (canonical unique table).
        let (mut pkg2, s2) = state_dd(&generators::ghz(6));
        let before = pkg2.stats().v_nodes;
        let (loaded, _) = vector_dd_from_bytes(&mut pkg2, &bytes).unwrap();
        assert_eq!(pkg2.stats().v_nodes, before, "no new nodes expected");
        assert_eq!(loaded.n, s2.n, "loaded root must alias the existing node");
    }

    #[test]
    fn zero_state_round_trips() {
        let pkg = DdPackage::default();
        let bytes = vector_dd_to_bytes(&pkg, VEdge::ZERO, 4).unwrap();
        let mut pkg2 = DdPackage::default();
        let (loaded, n) = vector_dd_from_bytes(&mut pkg2, &bytes).unwrap();
        assert!(loaded.is_zero());
        assert_eq!(n, 4);
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let mut pkg = DdPackage::default();
        assert!(vector_dd_from_bytes(&mut pkg, b"garbage").is_err());
        assert!(vector_dd_from_bytes(&mut pkg, b"QDDV1\0").is_err());
        // Valid magic with a forward reference.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&3u32.to_le_bytes()); // n = 3
        bytes.extend_from_slice(&1u32.to_le_bytes()); // 1 node
        bytes.push(0); // level 0
        bytes.extend_from_slice(&5u32.to_le_bytes()); // forward ref!
        bytes.extend_from_slice(&1.0f64.to_le_bytes());
        bytes.extend_from_slice(&0.0f64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0.0f64.to_le_bytes());
        bytes.extend_from_slice(&0.0f64.to_le_bytes());
        assert!(vector_dd_from_bytes(&mut pkg, &bytes).is_err());
    }

    #[test]
    fn corrupted_bytes_table() {
        // A valid stream, then systematic damage: every truncation length
        // and a byte-flip sweep must produce Err (or a still-valid stream
        // for flips that keep invariants), and must never panic.
        let (pkg, s) = state_dd(&generators::qft(5));
        let good = vector_dd_to_bytes(&pkg, s, 5).unwrap();
        assert!(good.len() > 60);

        for len in 0..good.len() {
            let mut pkg2 = DdPackage::default();
            assert!(
                vector_dd_from_bytes(&mut pkg2, &good[..len]).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }

        for i in 0..good.len() {
            for bit in [0u8, 3, 7] {
                let mut bytes = good.clone();
                bytes[i] ^= 1 << bit;
                let mut pkg2 = DdPackage::default();
                // Flips inside f64 weight bytes can yield a different but
                // structurally valid DD — only absence of panics and of
                // non-finite weights is guaranteed. Structural fields
                // (refs, counts, levels) must either error or keep bounds.
                let _ = vector_dd_from_bytes(&mut pkg2, &bytes);
            }
        }

        // Crafted structural corruptions that must be caught explicitly.
        let craft = |patch: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            patch(&mut bytes);
            let mut pkg2 = DdPackage::default();
            vector_dd_from_bytes(&mut pkg2, &bytes)
        };
        // Node count far beyond 2^n.
        assert!(craft(&|b| b[10..14].copy_from_slice(&u32::MAX.to_le_bytes())).is_err());
        // First node's level >= n.
        assert!(craft(&|b| b[14] = 64).is_err());
        // Qubit count 0 / implausible.
        assert!(craft(&|b| b[6..10].copy_from_slice(&0u32.to_le_bytes())).is_err());
        assert!(craft(&|b| b[6..10].copy_from_slice(&65u32.to_le_bytes())).is_err());
    }

    #[test]
    fn file_round_trip() {
        let (pkg, s) = state_dd(&generators::supremacy_n(8, 8, 3));
        let path = std::env::temp_dir().join("flatdd_state_test.qdd");
        {
            let mut f = std::fs::File::create(&path).unwrap();
            write_vector_dd(&pkg, s, 8, &mut f).unwrap();
        }
        let mut f = std::fs::File::open(&path).unwrap();
        let mut pkg2 = DdPackage::default();
        let (loaded, n) = read_vector_dd(&mut pkg2, &mut f).unwrap();
        let a = pkg.vector_to_array(s, 8);
        let b = pkg2.vector_to_array(loaded, n);
        assert!(state_distance(&a, &b) < 1e-9);
        std::fs::remove_file(&path).ok();
    }
}
