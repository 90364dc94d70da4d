//! Distributed arrays: global shape + per-node local tiles.
//!
//! Tiles store the node's owned region in canonical order (global
//! row-major order restricted to the owned index set). The runtime keeps
//! the *data movement* honest — `redistribute` really moves every element
//! into its new home — while the *cost* of the movement is charged
//! separately through [`crate::redist::RedistPlan`] on the virtual
//! machine.

use crate::dist::{Distribution, OwnedRegion};
use crate::redist::{plan, RedistPlan};

/// A distributed `f64` array.
#[derive(Debug, Clone)]
pub struct DistributedArray {
    shape: Vec<usize>,
    dist: Distribution,
    p: usize,
    tiles: Vec<Vec<f64>>,
}

/// Visit every global index in a region, in canonical (row-major) order.
pub fn for_each_index(region: &OwnedRegion, mut f: impl FnMut(&[usize])) {
    let ndims = region.per_dim.len();
    let mut idx = vec![0usize; ndims];
    visit(region, 0, &mut idx, &mut f);

    fn visit(region: &OwnedRegion, dim: usize, idx: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
        if dim == region.per_dim.len() {
            f(idx);
            return;
        }
        // Clone the range list iterator cheaply (ranges are small lists).
        for r in &region.per_dim[dim] {
            for i in r.clone() {
                idx[dim] = i;
                visit(region, dim + 1, idx, f);
            }
        }
    }
}

fn linear_index(shape: &[usize], idx: &[usize]) -> usize {
    let mut lin = 0;
    for (d, &i) in idx.iter().enumerate() {
        lin = lin * shape[d] + i;
    }
    lin
}

impl DistributedArray {
    /// Scatter a global array into tiles under `dist`.
    pub fn scatter(global: &[f64], shape: &[usize], dist: Distribution, p: usize) -> Self {
        let total: usize = shape.iter().product();
        assert_eq!(global.len(), total, "global size mismatch");
        let tiles: Vec<Vec<f64>> = (0..p)
            .map(|node| {
                let region = dist.owned(shape, p, node);
                let mut tile = Vec::with_capacity(region.volume());
                for_each_index(&region, |idx| tile.push(global[linear_index(shape, idx)]));
                tile
            })
            .collect();
        DistributedArray {
            shape: shape.to_vec(),
            dist,
            p,
            tiles,
        }
    }

    /// Assemble a distributed array from externally produced tiles (e.g.
    /// the message-passing executor). Tile sizes are validated against
    /// the owned volumes.
    pub fn from_tiles(shape: &[usize], dist: Distribution, tiles: Vec<Vec<f64>>) -> Self {
        let p = tiles.len();
        for (node, tile) in tiles.iter().enumerate() {
            assert_eq!(
                tile.len(),
                dist.owned_volume(shape, p, node),
                "node {node}: tile size mismatch"
            );
        }
        DistributedArray {
            shape: shape.to_vec(),
            dist,
            p,
            tiles,
        }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    pub fn p(&self) -> usize {
        self.p
    }

    /// Immutable view of a node's tile.
    pub fn tile(&self, node: usize) -> &[f64] {
        &self.tiles[node]
    }

    /// Mutable view of a node's tile.
    pub fn tile_mut(&mut self, node: usize) -> &mut [f64] {
        &mut self.tiles[node]
    }

    /// Reassemble the global array. Every element is read from its unique
    /// owner (for replicated distributions, node 0).
    pub fn gather(&self) -> Vec<f64> {
        let total: usize = self.shape.iter().product();
        let mut global = vec![0.0; total];
        if self.dist.is_replicated() {
            let region = self.dist.owned(&self.shape, self.p, 0);
            let mut k = 0;
            for_each_index(&region, |idx| {
                global[linear_index(&self.shape, idx)] = self.tiles[0][k];
                k += 1;
            });
        } else {
            for node in 0..self.p {
                let region = self.dist.owned(&self.shape, self.p, node);
                let mut k = 0;
                for_each_index(&region, |idx| {
                    global[linear_index(&self.shape, idx)] = self.tiles[node][k];
                    k += 1;
                });
            }
        }
        global
    }

    /// Redistribute to `dst`, really moving the data, and return the
    /// communication plan (per-node message/byte/copy loads) that a
    /// compiler would have generated for the change — the caller charges
    /// it to the virtual machine.
    pub fn redistribute(&mut self, dst: Distribution, word_size: usize) -> RedistPlan {
        let p = plan(&self.shape, &self.dist, &dst, self.p, word_size);
        let global = self.gather();
        *self = DistributedArray::scatter(&global, &self.shape, dst, self.p);
        p
    }

    /// Consistency check: replicated tiles must be identical; tile sizes
    /// must match owned volumes. Used by tests and debug assertions.
    pub fn check_consistent(&self) -> Result<(), String> {
        for node in 0..self.p {
            let vol = self.dist.owned_volume(&self.shape, self.p, node);
            if self.tiles[node].len() != vol {
                return Err(format!(
                    "node {node}: tile len {} != owned volume {vol}",
                    self.tiles[node].len()
                ));
            }
        }
        if self.dist.is_replicated() {
            for node in 1..self.p {
                if self.tiles[node] != self.tiles[0] {
                    return Err(format!("replicated tile {node} diverged from node 0"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Layout};

    fn global(shape: &[usize]) -> Vec<f64> {
        (0..shape.iter().product::<usize>())
            .map(|i| i as f64 * 0.5 + 1.0)
            .collect()
    }

    #[test]
    fn scatter_gather_roundtrip_block() {
        let shape = [3usize, 4, 6];
        let g = global(&shape);
        for dim in 0..3 {
            let a = DistributedArray::scatter(&g, &shape, Distribution::block(3, dim), 4);
            a.check_consistent().unwrap();
            assert_eq!(a.gather(), g, "dim {dim}");
        }
    }

    #[test]
    fn scatter_gather_roundtrip_cyclic_and_block_cyclic() {
        let shape = [5usize, 7];
        let g = global(&shape);
        let a = DistributedArray::scatter(&g, &shape, Distribution::new(2, 1, Layout::Cyclic), 3);
        assert_eq!(a.gather(), g);
        let b = DistributedArray::scatter(
            &g,
            &shape,
            Distribution::new(2, 0, Layout::BlockCyclic(2)),
            2,
        );
        assert_eq!(b.gather(), g);
    }

    #[test]
    fn replicated_tiles_are_full_copies() {
        let shape = [2usize, 3];
        let g = global(&shape);
        let a = DistributedArray::scatter(&g, &shape, Distribution::replicated(2), 4);
        for node in 0..4 {
            assert_eq!(a.tile(node).len(), 6);
        }
        a.check_consistent().unwrap();
        assert_eq!(a.gather(), g);
    }

    #[test]
    fn redistribution_preserves_every_element() {
        let shape = [4usize, 5, 9];
        let g = global(&shape);
        let mut a = DistributedArray::scatter(&g, &shape, Distribution::replicated(3), 6);
        // Walk the Airshed cycle: Repl -> Trans -> Chem -> Repl.
        a.redistribute(Distribution::block(3, 1), 8);
        assert_eq!(a.gather(), g);
        a.redistribute(Distribution::block(3, 2), 8);
        assert_eq!(a.gather(), g);
        a.redistribute(Distribution::replicated(3), 8);
        assert_eq!(a.gather(), g);
        a.check_consistent().unwrap();
    }

    #[test]
    fn tile_mutation_flows_through_gather() {
        let shape = [2usize, 4];
        let g = global(&shape);
        let mut a = DistributedArray::scatter(&g, &shape, Distribution::block(2, 1), 2);
        // Node 1 owns columns 2..4; poke its first element (global (0,2)).
        a.tile_mut(1)[0] = 99.0;
        let out = a.gather();
        assert_eq!(out[2], 99.0);
    }

    #[test]
    fn for_each_index_order_is_row_major() {
        let d = Distribution::replicated(2);
        let region = d.owned(&[2, 3], 1, 0);
        let mut seen = Vec::new();
        for_each_index(&region, |idx| seen.push((idx[0], idx[1])));
        assert_eq!(seen, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn empty_owner_tiles_are_empty() {
        // 5 layers on 8 nodes: nodes 5..8 own nothing.
        let shape = [2usize, 5, 3];
        let a = DistributedArray::scatter(&global(&shape), &shape, Distribution::block(3, 1), 8);
        assert_eq!(a.tile(7).len(), 0);
        assert_eq!(a.tile(0).len(), 2 * 3);
        a.check_consistent().unwrap();
    }
}
