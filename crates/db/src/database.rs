//! The `Database` object: catalog + data + statistics + physical structures
//! + environment, with planning and simulated execution entry points.

use crate::catalog::{Catalog, TableId, TableSchema};
use crate::data::{ColumnVector, TableData};
use crate::env::DbEnvironment;
use crate::executor::{execute_plan, ExecutedQuery};
use crate::plan::PlanNode;
use crate::planner::plan_query;
use crate::query::Query;
use crate::stats::TableStats;
use qcfe_storage::{BPlusTree, BufferPool, TupleId};
use rand::Rng;
use std::collections::HashMap;

/// Errors raised when planning or executing a query against a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A referenced table does not exist in the catalog.
    UnknownTable(String),
    /// A referenced column does not exist on its table.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// The query references no tables.
    EmptyQuery,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            DbError::UnknownColumn { table, column } => {
                write!(f, "unknown column: {table}.{column}")
            }
            DbError::EmptyQuery => write!(f, "query references no tables"),
        }
    }
}

impl std::error::Error for DbError {}

/// Structural metadata of a B+tree index used by the I/O model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexMeta {
    /// Tree height (root to leaf).
    pub height: u32,
    /// Number of leaf pages.
    pub leaf_pages: u64,
}

/// A fully-populated single-node database instance.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    data: Vec<TableData>,
    stats: Vec<TableStats>,
    env: DbEnvironment,
    buffer: BufferPool,
    /// Physical B+tree indexes on integer columns, keyed by (table, column).
    indexes: HashMap<(TableId, usize), BPlusTree>,
}

impl Database {
    /// Build a database from a catalog and per-table data (in table-id
    /// order), analysing statistics and building indexes on the indexed
    /// integer columns.
    ///
    /// # Panics
    /// Panics if `data` does not provide one `TableData` per catalog table.
    pub fn build(catalog: Catalog, data: Vec<TableData>, env: DbEnvironment) -> Self {
        assert_eq!(
            catalog.table_count(),
            data.len(),
            "need exactly one TableData per catalog table"
        );
        let stats: Vec<TableStats> = catalog
            .tables()
            .zip(&data)
            .map(|(schema, d)| TableStats::analyze(d, schema.tuple_width()))
            .collect();

        let mut indexes = HashMap::new();
        for schema in catalog.tables() {
            let table_data = &data[schema.id as usize];
            for &col in &schema.indexed_columns {
                if let ColumnVector::Int(values) = table_data.column(col) {
                    let mut tree = BPlusTree::default();
                    for (row, &key) in values.iter().enumerate() {
                        tree.insert(key, TupleId::new((row / 64) as u64, (row % 64) as u16));
                    }
                    indexes.insert((schema.id, col), tree);
                }
            }
        }

        let buffer = BufferPool::new(env.buffer_pool_pages());
        Database {
            catalog,
            data,
            stats,
            env,
            buffer,
            indexes,
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The active environment.
    pub fn environment(&self) -> &DbEnvironment {
        &self.env
    }

    /// The buffer pool.
    pub fn buffer(&self) -> &BufferPool {
        &self.buffer
    }

    /// Schema of a table by name.
    pub fn schema(&self, table: &str) -> Result<&TableSchema, DbError> {
        self.catalog
            .table_by_name(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))
    }

    /// Statistics of a table by name.
    pub fn table_stats(&self, table: &str) -> Result<&TableStats, DbError> {
        let schema = self.schema(table)?;
        Ok(&self.stats[schema.id as usize])
    }

    /// Data of a table by name.
    pub fn table_data(&self, table: &str) -> Result<&TableData, DbError> {
        let schema = self.schema(table)?;
        Ok(&self.data[schema.id as usize])
    }

    /// Resolve a column name to its index, with a helpful error.
    pub fn column_index(&self, table: &str, column: &str) -> Result<usize, DbError> {
        let schema = self.schema(table)?;
        schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })
    }

    /// Physical index metadata for `(table, column)`, falling back to an
    /// analytic estimate when no physical tree was built (e.g. non-integer
    /// columns).
    pub fn index_meta(&self, table: &str, column: &str) -> Result<IndexMeta, DbError> {
        let schema = self.schema(table)?;
        let col = self.column_index(table, column)?;
        if let Some(tree) = self.indexes.get(&(schema.id, col)) {
            return Ok(IndexMeta {
                height: tree.height(),
                leaf_pages: tree.leaf_page_count(),
            });
        }
        // Analytic fallback: fanout-256 tree over row_count entries.
        let rows = self.stats[schema.id as usize].row_count.max(1) as f64;
        let height = (rows.ln() / 256f64.ln()).ceil().max(1.0) as u32;
        let leaf_pages = (rows / 256.0).ceil().max(1.0) as u64;
        Ok(IndexMeta { height, leaf_pages })
    }

    /// Physical B+tree for `(table, column)`, when one was built.
    pub fn index(&self, table: &str, column: &str) -> Option<&BPlusTree> {
        let schema = self.catalog.table_by_name(table)?;
        let col = schema.column_index(column)?;
        self.indexes.get(&(schema.id, col))
    }

    /// Whether `(table, column)` carries an index.
    pub fn has_index(&self, table: &str, column: &str) -> bool {
        match (self.schema(table), self.column_index(table, column)) {
            (Ok(schema), Ok(col)) => schema.has_index(col),
            _ => false,
        }
    }

    /// Plan a query with the cost-based planner under the current
    /// environment's knobs.
    pub fn plan(&self, query: &Query) -> Result<PlanNode, DbError> {
        plan_query(self, query)
    }

    /// Plan and "execute" a query: the execution simulator computes actual
    /// cardinalities from the stored data and actual per-operator latencies
    /// from the environment's true cost coefficients.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        query: &Query,
        rng: &mut R,
    ) -> Result<ExecutedQuery, DbError> {
        let plan = self.plan(query)?;
        Ok(execute_plan(self, &plan, rng))
    }

    /// Total number of rows across all tables (sanity / reporting).
    pub fn total_rows(&self) -> u64 {
        self.stats.iter().map(|s| s.row_count).sum()
    }
}
