//! Parallel data loading (§4.4).
//!
//! The host database's `LOAD` command reads disk blocks with "multiple scan
//! threads cooperatively collect(ing) and buffer(ing) data records"; here
//! the source is any iterator of rows. The loader fans record batches out
//! to worker threads that pre-validate and buffer them, then a single
//! builder pass derives encodings (dictionaries need a global view anyway)
//! and chunks the data. The degree of parallelism is a knob, matching the
//! paper's "adjusted such that we reach the maximum disk bandwidth".

use std::sync::mpsc;
use std::thread;

use crate::schema::Schema;
use crate::scn::Scn;
use crate::table::{Table, TableBuilder};
use crate::types::Value;

/// Rows per batch handed to worker threads.
pub const LOAD_BATCH_ROWS: usize = 8192;

/// Loader configuration.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Scan/validate worker threads.
    pub parallelism: usize,
    /// Horizontal partitions of the built table.
    pub partitions: usize,
    /// Rows per chunk.
    pub chunk_rows: usize,
    /// SCN to stamp on the loaded table.
    pub scn: Scn,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            parallelism: 4,
            partitions: 1,
            chunk_rows: crate::DEFAULT_CHUNK_ROWS,
            scn: Scn::ZERO,
        }
    }
}

/// Load a table from a row iterator using `opts.parallelism` worker
/// threads for batch validation/buffering.
///
/// Row order is preserved (workers return indexed batches), so loads are
/// deterministic regardless of thread scheduling.
pub fn load_table<I>(
    name: &str,
    schema: Schema,
    rows: I,
    opts: &LoadOptions,
) -> Result<Table, LoadError>
where
    I: IntoIterator<Item = Vec<Value>>,
{
    let ncols = schema.len();
    let workers = opts.parallelism.max(1);

    // Feed batches to workers over a channel; workers validate arity and
    // ship (index, batch) back; reassemble in order.
    let (work_tx, work_rx) = mpsc::channel::<(usize, Vec<Vec<Value>>)>();
    let work_rx = std::sync::Arc::new(parking_lot::Mutex::new(work_rx));
    let (done_tx, done_rx) = mpsc::channel::<Result<(usize, Vec<Vec<Value>>), LoadError>>();

    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let rx = std::sync::Arc::clone(&work_rx);
            let tx = done_tx.clone();
            thread::spawn(move || loop {
                let msg = { rx.lock().recv() };
                match msg {
                    Ok((idx, batch)) => {
                        let checked = batch
                            .into_iter()
                            .map(|row| {
                                if row.len() == ncols {
                                    Ok(row)
                                } else {
                                    Err(LoadError::Arity {
                                        expected: ncols,
                                        got: row.len(),
                                    })
                                }
                            })
                            .collect::<Result<Vec<_>, _>>();
                        if tx.send(checked.map(|b| (idx, b))).is_err() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            })
        })
        .collect();
    drop(done_tx);

    // A send fails only once every worker has gone, which only a panic
    // does: stop feeding, and the join below reports it.
    let mut batch = Vec::with_capacity(LOAD_BATCH_ROWS);
    let mut sent = 0usize;
    for row in rows {
        batch.push(row);
        if batch.len() == LOAD_BATCH_ROWS {
            if work_tx.send((sent, std::mem::take(&mut batch))).is_err() {
                break;
            }
            sent += 1;
        }
    }
    if !batch.is_empty() && work_tx.send((sent, batch)).is_ok() {
        sent += 1;
    }
    drop(work_tx);

    let mut slots: Vec<Option<Vec<Vec<Value>>>> = vec![None; sent];
    let mut first_err = None;
    for msg in done_rx {
        match msg {
            Ok((idx, b)) => slots[idx] = Some(b),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let mut panicked = false;
    for h in handles {
        panicked |= h.join().is_err();
    }
    if panicked {
        return Err(LoadError::WorkerPanicked);
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    let mut builder = TableBuilder::new(name, schema)
        .partitions(opts.partitions)
        .chunk_rows(opts.chunk_rows);
    for slot in slots {
        builder.extend_rows(slot.ok_or(LoadError::WorkerPanicked)?);
    }
    Ok(builder.finish_at_scn(opts.scn))
}

/// Load failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A row's arity does not match the schema.
    Arity {
        /// Columns in the schema.
        expected: usize,
        /// Columns in the offending row.
        got: usize,
    },
    /// A validation worker panicked; its batches never came back.
    WorkerPanicked,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Arity { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            LoadError::WorkerPanicked => write!(f, "a load worker panicked"),
        }
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ])
    }

    #[test]
    fn parallel_load_preserves_order() {
        let rows: Vec<Vec<Value>> = (0..30_000i64)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
            .collect();
        let t = load_table("t", schema(), rows, &LoadOptions::default()).unwrap();
        assert_eq!(t.rows(), 30_000);
        // Single partition: global row order must match input order.
        let k = t.column_i64(0);
        assert!(k.iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn arity_error_propagates() {
        let rows = vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]];
        let err = load_table("t", schema(), rows, &LoadOptions::default()).unwrap_err();
        assert_eq!(
            err,
            LoadError::Arity {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn empty_source() {
        let t = load_table("t", schema(), Vec::new(), &LoadOptions::default()).unwrap();
        assert_eq!(t.rows(), 0);
    }

    #[test]
    fn partitioned_load() {
        let rows: Vec<Vec<Value>> = (0..1000i64)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect();
        let opts = LoadOptions {
            partitions: 4,
            chunk_rows: 100,
            ..Default::default()
        };
        let t = load_table("t", schema(), rows, &opts).unwrap();
        assert_eq!(t.partitions.len(), 4);
        assert_eq!(t.rows(), 1000);
        // Chunks distributed round-robin: 10 chunks over 4 partitions.
        let counts: Vec<usize> = t.partitions.iter().map(|p| p.chunks.len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c >= 2));
    }
}
