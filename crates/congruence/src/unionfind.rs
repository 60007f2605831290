//! A classic disjoint-set forest with union by rank and path compression.

/// Disjoint-set forest over dense `usize` ids.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    classes: usize,
}

impl UnionFind {
    /// Creates a structure with `n` singleton classes `0 .. n`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            classes: n,
        }
    }

    /// Adds a fresh singleton and returns its id.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id as u32);
        self.rank.push(0);
        self.classes += 1;
        id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of distinct classes.
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Representative of `x`'s class, with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Compress.
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Representative without mutation (no compression). O(depth).
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        root
    }

    /// Merges the classes of `a` and `b`; returns the surviving
    /// representative, or `None` if they were already equal.
    pub fn union(&mut self, a: usize, b: usize) -> Option<usize> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        self.classes -= 1;
        let (winner, loser) = match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Equal => {
                self.rank[ra] += 1;
                (ra, rb)
            }
        };
        self.parent[loser] = winner as u32;
        Some(winner)
    }

    /// Whether `a` and `b` are in the same class.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_elements_are_singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.class_count(), 3);
        assert!(!uf.same(0, 1));
        assert_eq!(uf.find(2), 2);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1).is_some());
        assert!(uf.union(1, 2).is_some());
        assert!(uf.union(0, 2).is_none());
        assert_eq!(uf.class_count(), 2);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
    }

    #[test]
    fn push_extends() {
        let mut uf = UnionFind::new(1);
        let id = uf.push();
        assert_eq!(id, 1);
        assert_eq!(uf.len(), 2);
        uf.union(0, id);
        assert!(uf.same(0, 1));
    }

    #[test]
    fn find_immutable_matches_find() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        for i in 0..4 {
            assert_eq!(uf.find_immutable(i), uf.find(i));
        }
    }

    #[test]
    fn long_chain_compresses() {
        let mut uf = UnionFind::new(1000);
        for i in 0..999 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.class_count(), 1);
        assert_eq!(uf.find(0), uf.find(999));
    }
}
