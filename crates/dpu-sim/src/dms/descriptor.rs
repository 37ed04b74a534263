//! DMS descriptors and descriptor loops.
//!
//! A descriptor "represents the data transfer with parameters like amount of
//! data, source and destination memory locations" (§5.1). Descriptors are
//! chained into loops so that a fixed set of them can be reused for many
//! iterations — that is how the relation accessor implements double
//! buffering: while the dpCore works on buffer A, the loop's next iteration
//! fills buffer B.
//!
//! In the simulator a descriptor is a plain value describing one column
//! buffer's movement; the engine consumes them to produce timing. The row
//! data itself moves through ordinary Rust slices owned by the caller.

/// Direction of a transfer with respect to the dpCore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// DRAM -> DMEM (operator input).
    Read,
    /// DMEM -> DRAM (operator output / materialization).
    Write,
}

/// One descriptor: movement of one buffer of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Transfer direction.
    pub direction: Direction,
    /// Rows in the buffer (the operator tile size, ≥ 64 in RAPID).
    pub rows: usize,
    /// Width of the column's elements in bytes (1, 2, 4 or 8).
    pub width: usize,
    /// Whether the access is a contiguous stream (sequential) or a
    /// gather/scatter through a row-id list or bit-vector.
    pub gather: bool,
}

impl Descriptor {
    /// Bytes moved by one execution of this descriptor.
    pub fn bytes(&self) -> u64 {
        (self.rows * self.width) as u64
    }
}

/// A chained set of descriptors executed for `iterations` rounds — the DMS
/// "loop" that the relation accessor programs once per operator input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptorLoop {
    /// Descriptors executed each iteration (typically one per column, plus
    /// one per output column when the operator materializes).
    pub descriptors: Vec<Descriptor>,
    /// Number of loop iterations (≈ number of tiles in the vector).
    pub iterations: usize,
    /// Double buffering: when true (the normal case) transfer time of
    /// iteration *i+1* overlaps with compute on iteration *i*.
    pub double_buffered: bool,
}

impl DescriptorLoop {
    /// A simple sequential-read loop over `cols` columns of equal `width`,
    /// `rows_total` rows in tiles of `tile` rows.
    pub fn sequential_read(cols: usize, width: usize, rows_total: usize, tile: usize) -> Self {
        let tile = tile.max(1);
        DescriptorLoop {
            descriptors: vec![
                Descriptor {
                    direction: Direction::Read,
                    rows: tile,
                    width,
                    gather: false
                };
                cols
            ],
            iterations: rows_total.div_ceil(tile),
            double_buffered: true,
        }
    }

    /// A read+write loop (streaming transform): reads and writes back the
    /// same shape.
    pub fn sequential_read_write(
        cols: usize,
        width: usize,
        rows_total: usize,
        tile: usize,
    ) -> Self {
        let tile = tile.max(1);
        let mut descriptors = vec![
            Descriptor {
                direction: Direction::Read,
                rows: tile,
                width,
                gather: false
            };
            cols
        ];
        descriptors.extend(vec![
            Descriptor {
                direction: Direction::Write,
                rows: tile,
                width,
                gather: false
            };
            cols
        ]);
        DescriptorLoop {
            descriptors,
            iterations: rows_total.div_ceil(tile),
            double_buffered: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_read_shape() {
        let l = DescriptorLoop::sequential_read(4, 4, 1_000_000, 128);
        assert_eq!(l.descriptors.len(), 4);
        assert_eq!(l.iterations, 7813); // ceil(1e6 / 128)
    }

    #[test]
    fn read_write_doubles_streams() {
        let l = DescriptorLoop::sequential_read_write(2, 8, 256, 64);
        assert_eq!(l.descriptors.len(), 4);
        assert_eq!(l.iterations, 4);
        assert!(l.descriptors[..2]
            .iter()
            .all(|d| d.direction == Direction::Read));
        assert!(l.descriptors[2..]
            .iter()
            .all(|d| d.direction == Direction::Write));
    }

    #[test]
    fn partial_last_tile_rounds_up() {
        let l = DescriptorLoop::sequential_read(1, 4, 100, 64);
        assert_eq!(l.iterations, 2);
    }

    #[test]
    fn descriptor_bytes() {
        let d = Descriptor {
            direction: Direction::Read,
            rows: 128,
            width: 4,
            gather: false,
        };
        assert_eq!(d.bytes(), 512);
    }
}
