//! Physical storage: a partitioning materialized as row-major table
//! fractions.
//!
//! A [`RowSegment`] is one vertical fraction of one table on one site —
//! the subset of the table's attributes placed there — over a contiguous
//! segment of the table's rows. It is row-major (the H-store/row-store
//! assumption: access happens in quantums of whole fraction rows), and
//! each attribute takes its *physical* width, `ceil(w_a).max(1)` bytes.
//! Row payloads are materialized deterministically, so the engine really
//! moves bytes instead of just counting them.
//!
//! Both entry points hold their segments in one crate-private `Store`:
//! `shards` contiguous row-range shards, each holding the segment of every
//! `(site, table)` pair the partitioning fills. A
//! [`ReplayDeployment`](crate::ReplayDeployment) splits its rows into
//! shards that replay workers own outright; a
//! [`Deployment`](crate::Deployment) is the one-shard store its migrations
//! rebuild.

use crate::replay::{mix, ShardMeter};
use vpart_model::{AttrId, Partitioning, Schema, SiteId, TableId};

/// The physical width of an attribute of average width `w`.
fn physical(w: f64) -> usize {
    (w.ceil() as usize).max(1)
}

/// One vertical table fraction covering a contiguous row segment.
///
/// The segment stores each attribute at its physical width
/// (`ceil(w_a).max(1)` bytes) and holds only rows
/// `base_row .. base_row + rows` of the table: one `rows × row_width`
/// byte vector, attributes in id order inside each row, so a row access
/// is one contiguous copy. Replay workers own whole shards of segments —
/// no locks, no atomics, byte meters in exact `u64`.
#[derive(Debug, Clone)]
pub struct RowSegment {
    /// The table this fraction belongs to.
    pub table: TableId,
    /// The attributes stored here, in global id order.
    pub attrs: Vec<AttrId>,
    /// First table row covered by this segment.
    pub base_row: usize,
    /// Rows in this segment.
    pub rows: usize,
    /// Physical per-attribute widths in bytes (`ceil(w_a).max(1)`).
    widths: Vec<usize>,
    /// Row-major payload (`rows × row_width` bytes).
    data: Vec<u8>,
    row_width: usize,
}

impl RowSegment {
    /// Materializes the segment with a deterministic, row-global fill:
    /// byte `j` of attribute `a` in table row `r` depends only on
    /// `(table, a, r, j)`, never on the segment boundaries — so checksums
    /// are invariant under re-sharding.
    pub fn new(table: TableId, attrs: Vec<(AttrId, f64)>, base_row: usize, rows: usize) -> Self {
        let (ids, widths) = attrs.into_iter().map(|(a, w)| (a, physical(w))).unzip();
        Self::with_widths(table, ids, widths, base_row, rows)
    }

    /// [`new`](Self::new) with the physical widths already computed.
    fn with_widths(
        table: TableId,
        ids: Vec<AttrId>,
        widths: Vec<usize>,
        base_row: usize,
        rows: usize,
    ) -> Self {
        let row_width = widths.iter().sum();
        let mut segment = Self {
            table,
            attrs: ids,
            base_row,
            rows,
            widths,
            data: vec![0u8; rows * row_width],
            row_width,
        };
        segment.refill();
        segment
    }

    /// Restores the deterministic initial fill — the replay harness's
    /// crash recovery: a pass discarded by an injected fault rolls its
    /// partial writes back to the durable (initial) payload.
    ///
    /// Byte `j` of an attribute of physical width `pw` in table row `r`
    /// is the low byte of `(r·pw + j)·2654435761 + (table ^ a << 8)`,
    /// which is `(r·pw + j)·0xB1 + table` in `u8` arithmetic. Down a
    /// column that is an arithmetic sequence, so once two rows are
    /// computed, every byte is `2·above − two above` for any stride of
    /// whole rows. The stride grows with the filled prefix, so the fill
    /// runs as a few long loops rather than one short loop per row.
    pub fn refill(&mut self) {
        let width = self.row_width;
        let rows = self.data.chunks_exact_mut(width.max(1));
        for (r, row) in (self.base_row..).zip(rows).take(2) {
            let mut at = 0usize;
            for &pw in &self.widths {
                for (j, b) in row[at..at + pw].iter_mut().enumerate() {
                    let x = (r * pw + j) as u8;
                    *b = x.wrapping_mul(0xB1).wrapping_add(self.table.0 as u8);
                }
                at += pw;
            }
        }
        let len = self.data.len();
        let mut filled = (2 * width).min(len);
        while filled < len {
            let stride = filled / 2 / width * width;
            let n = stride.min(len - filled);
            let (done, next) = self.data.split_at_mut(filled);
            let (two_above, above) = done[filled - 2 * stride..].split_at(stride);
            for ((b, &a1), &a2) in next[..n].iter_mut().zip(above).zip(two_above) {
                *b = a1.wrapping_mul(2).wrapping_sub(a2);
            }
            filled += n;
        }
    }

    /// Physical width of one fraction row (`Σ ceil(w_a).max(1)`).
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Physical width of attribute `a` here, or 0 when absent.
    pub fn attr_width(&self, a: AttrId) -> usize {
        match self.attrs.binary_search(&a) {
            Ok(i) => self.widths[i],
            Err(_) => 0,
        }
    }

    /// Copies table row `row` (a *global* row index inside this segment)
    /// into `buf`. Returns the physical bytes read. `buf` must be at
    /// least [`row_width`](Self::row_width) long — replay preallocates it
    /// once per site and reuses it for every read.
    #[inline]
    pub fn read_row_into(&self, row: usize, buf: &mut [u8]) -> usize {
        debug_assert!(row >= self.base_row && row < self.base_row + self.rows);
        let at = (row - self.base_row) * self.row_width;
        buf[..self.row_width].copy_from_slice(&self.data[at..at + self.row_width]);
        self.row_width
    }

    /// Overwrites table row `row` with `tag`; returns the physical bytes
    /// written.
    #[inline]
    pub fn write_row(&mut self, row: usize, tag: u8) -> usize {
        debug_assert!(row >= self.base_row && row < self.base_row + self.rows);
        let at = (row - self.base_row) * self.row_width;
        self.data[at..at + self.row_width].fill(tag);
        self.row_width
    }

    /// Physical payload size of this segment in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }
}

/// The fraction of `table` that `partitioning` places on `site`, over
/// rows `base .. base + rows` — the one constructor of every stored
/// segment. `None` when the site holds no attribute of the table or the
/// range is empty.
fn segment(
    schema: &Schema,
    partitioning: &Partitioning,
    site: SiteId,
    table: TableId,
    base: usize,
    rows: usize,
) -> Option<RowSegment> {
    let held = schema
        .table_attrs(table)
        .map(AttrId::from_index)
        .filter(|&a| partitioning.has_attr(a, site));
    let n = held.clone().count();
    if n == 0 || rows == 0 {
        return None;
    }
    let (mut ids, mut widths) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for a in held {
        ids.push(a);
        widths.push(physical(schema.width(a)));
    }
    Some(RowSegment::with_widths(table, ids, widths, base, rows))
}

/// One site's storage inside one shard: a segment per table (`None` where
/// the site holds none of the table's attributes) plus a row buffer,
/// reused by every read, at least as wide as the widest segment.
#[derive(Debug, Clone)]
pub(crate) struct ShardSite {
    pub(crate) fragments: Vec<Option<RowSegment>>,
    pub(crate) buf: Vec<u8>,
}

/// One contiguous row-range shard: all sites' segments for those rows,
/// plus the shard's replay meter. A replay worker owns whole shards —
/// every byte a touch moves lives inside the shard that owns its row.
#[derive(Debug, Clone)]
pub(crate) struct StoreShard {
    pub(crate) sites: Vec<ShardSite>,
    pub(crate) meter: ShardMeter,
}

/// A partitioning materialized as row-major storage: `rows_per_table`
/// rows of every table, vertically fractioned per site and split into
/// contiguous row-range shards.
#[derive(Debug, Clone)]
pub(crate) struct Store {
    pub(crate) shards: Vec<StoreShard>,
    pub(crate) rows_per_table: usize,
    pub(crate) rows_per_shard: usize,
}

impl Store {
    /// Builds the segment of every `(shard, site, table)`. Both counts
    /// are raised to at least 1. Shards hold `⌈rows / shards⌉` rows each,
    /// and only the shards that hold rows are kept: 5 rows in 4 shards
    /// are 3 shards of 2, 2 and 1 rows.
    pub(crate) fn new(
        schema: &Schema,
        partitioning: &Partitioning,
        rows_per_table: usize,
        shards: usize,
    ) -> Self {
        let rows_per_table = rows_per_table.max(1);
        let rows_per_shard = rows_per_table.div_ceil(shards.clamp(1, rows_per_table));
        let n_shards = rows_per_table.div_ceil(rows_per_shard);
        let n_sites = partitioning.n_sites();
        let mut store = Self {
            shards: Vec::with_capacity(n_shards),
            rows_per_table,
            rows_per_shard,
        };
        for s in 0..n_shards {
            let (base, rows) = store.shard_rows(s);
            let sites = (0..n_sites)
                .map(|si| {
                    let fragments: Vec<_> = (0..schema.n_tables())
                        .map(|t| {
                            let (site, table) = (SiteId::from_index(si), TableId::from_index(t));
                            segment(schema, partitioning, site, table, base, rows)
                        })
                        .collect();
                    let width = fragments.iter().flatten().map(RowSegment::row_width);
                    let buf = vec![0; width.max().unwrap_or(0)];
                    ShardSite { fragments, buf }
                })
                .collect();
            store.shards.push(StoreShard {
                sites,
                meter: ShardMeter::new(n_sites),
            });
        }
        store
    }

    /// First row and row count of shard `s`.
    fn shard_rows(&self, s: usize) -> (usize, usize) {
        let base = s * self.rows_per_shard;
        let rows = self
            .rows_per_shard
            .min(self.rows_per_table.saturating_sub(base));
        (base, rows)
    }

    /// Re-derives the `(site, table)` segment of every shard from
    /// `partitioning`. The fill is deterministic, so the result is the
    /// storage a fresh build of `partitioning` holds.
    pub(crate) fn rebuild(
        &mut self,
        schema: &Schema,
        partitioning: &Partitioning,
        site: SiteId,
        table: TableId,
    ) {
        for s in 0..self.shards.len() {
            let (base, rows) = self.shard_rows(s);
            let fraction = segment(schema, partitioning, site, table, base, rows);
            let width = fraction.as_ref().map_or(0, RowSegment::row_width);
            let shard_site = &mut self.shards[s].sites[site.index()];
            // The buffer only has to be wide enough; it never shrinks.
            shard_site.buf.resize(shard_site.buf.len().max(width), 0);
            shard_site.fragments[table.index()] = fraction;
        }
    }

    /// Every segment, in `(shard, site, table)` order, with its site.
    fn segments(&self) -> impl Iterator<Item = (usize, &RowSegment)> {
        self.shards.iter().flat_map(|shard| {
            (shard.sites.iter().enumerate())
                .flat_map(|(si, site)| site.fragments.iter().flatten().map(move |seg| (si, seg)))
        })
    }

    /// Total physically materialized bytes across shards and sites.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.segments().map(|(_, seg)| seg.payload_bytes()).sum()
    }

    /// Restores every segment's initial fill.
    pub(crate) fn refill(&mut self) {
        for shard in &mut self.shards {
            for site in &mut shard.sites {
                site.fragments
                    .iter_mut()
                    .flatten()
                    .for_each(RowSegment::refill);
            }
        }
    }

    /// Folds every segment's site, table, attributes, row range and raw
    /// payload into the running hash `h`.
    pub(crate) fn fingerprint(&self, h: &mut u64) {
        let mut put = |v: u64| *h = mix(*h ^ v);
        for (site, seg) in self.segments() {
            put(site as u64);
            put(seg.table.index() as u64);
            put(seg.attrs.len() as u64);
            seg.attrs.iter().for_each(|a| put(a.index() as u64));
            put(seg.base_row as u64);
            put(seg.rows as u64);
            seg.data.iter().for_each(|&b| put(b as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For row and shard counts up to 40, the kept shards each hold rows
    /// and together cover the table once, in order.
    #[test]
    fn every_shard_holds_rows() {
        let mut sb = Schema::builder();
        sb.table("R", &[("k", 4.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut y = vpart_model::BitMatrix::new(1, 1);
        y.set(0, 0);
        let part = Partitioning::from_parts(1, Vec::new(), y).unwrap();
        for rows in 1..=40 {
            for shards in 1..=40 {
                let store = Store::new(&schema, &part, rows, shards);
                assert!(store.shards.len() <= shards, "R={rows} S={shards}");
                let mut next = 0;
                for s in 0..store.shards.len() {
                    let (base, n) = store.shard_rows(s);
                    assert!(n >= 1, "R={rows} S={shards}: shard {s} is empty");
                    assert_eq!(base, next, "R={rows} S={shards}: gap");
                    next += n;
                }
                assert_eq!(next, rows, "R={rows} S={shards}: coverage");
            }
        }
    }

    /// The fill rule the segments implement, byte by byte.
    fn fill_byte(table: TableId, a: AttrId, r: usize, pw: usize, j: usize) -> u8 {
        ((r * pw + j) as u32)
            .wrapping_mul(2654435761)
            .wrapping_add(table.0 ^ (a.0 << 8))
            .to_le_bytes()[0]
    }

    #[test]
    fn row_segment_round_trip() {
        let mut f = RowSegment::new(TableId(0), vec![(AttrId(0), 4.0), (AttrId(2), 2.5)], 0, 8);
        // Physical widths round up: 4 + 3 = 7 bytes per row.
        assert_eq!(f.row_width(), 7);
        assert_eq!(f.payload_bytes(), 8 * 7);
        assert_eq!(f.attr_width(AttrId(0)), 4);
        assert_eq!(f.attr_width(AttrId(2)), 3);
        assert_eq!(f.attr_width(AttrId(1)), 0);
        let mut buf = vec![0u8; 7];
        assert_eq!(f.read_row_into(3, &mut buf), 7);
        let before = buf.clone();
        assert_eq!(f.write_row(3, 0xCD), 7);
        f.read_row_into(3, &mut buf);
        assert_eq!(buf, vec![0xCD; 7]);
        assert_ne!(before, buf);
        // Neighbouring rows are untouched; refill restores the row.
        f.read_row_into(4, &mut buf);
        assert_ne!(buf, vec![0xCD; 7]);
        f.refill();
        f.read_row_into(3, &mut buf);
        assert_eq!(buf, before);
    }

    #[test]
    fn fractional_widths_round_up_physically() {
        let f = RowSegment::new(TableId(1), vec![(AttrId(5), 2.5)], 0, 4);
        assert_eq!(f.payload_bytes(), 4 * 3);
        assert_eq!(f.row_width(), 3);
        // A zero width still takes one byte.
        let narrow = RowSegment::new(TableId(1), vec![(AttrId(5), 0.0)], 0, 4);
        assert_eq!(narrow.row_width(), 1);
    }

    /// The fill is row-global: the same table row carries the same bytes
    /// no matter which segment materializes it.
    #[test]
    fn row_segment_fill_is_segment_invariant() {
        let attrs = vec![(AttrId(0), 4.0), (AttrId(1), 8.0)];
        let whole = RowSegment::new(TableId(2), attrs.clone(), 0, 16);
        let upper = RowSegment::new(TableId(2), attrs, 10, 6);
        let mut a = vec![0u8; whole.row_width()];
        let mut b = vec![0u8; upper.row_width()];
        for row in 10..16 {
            whole.read_row_into(row, &mut a);
            upper.read_row_into(row, &mut b);
            assert_eq!(a, b, "row {row} differs between segment layouts");
        }
    }

    /// A row holds its attributes in id order, each filled by the
    /// `(table, a, r, j)` rule — also for attributes wider than 256
    /// bytes and rows past 256, where the `u8` arithmetic wraps.
    #[test]
    fn row_segment_rows_are_attribute_ordered() {
        let cases = [
            (TableId(3), vec![(AttrId(4), 2.0), (AttrId(9), 1.5)], 5, 3),
            (
                TableId(300),
                vec![(AttrId(1), 7.0), (AttrId(2), 300.0), (AttrId(70), 0.5)],
                250,
                20,
            ),
        ];
        for (table, attrs, base, rows) in cases {
            let f = RowSegment::new(table, attrs.clone(), base, rows);
            let mut buf = vec![0u8; f.row_width()];
            for r in base..base + rows {
                f.read_row_into(r, &mut buf);
                let mut expected = Vec::new();
                for &(a, w) in &attrs {
                    let pw = (w.ceil() as usize).max(1);
                    expected.extend((0..pw).map(|j| fill_byte(table, a, r, pw, j)));
                }
                assert_eq!(buf, expected, "table {table:?} row {r}");
            }
        }
    }

    /// R{a(4), b(8)} and S{c(2)} over 2 sites: one transaction, on site
    /// 0, and attribute `a` on the sites `sites[a]`.
    fn layout(sites: [&[usize]; 3]) -> (Schema, Partitioning) {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0), ("b", 8.0)]).unwrap();
        sb.table("S", &[("c", 2.0)]).unwrap();
        let mut y = vpart_model::BitMatrix::new(3, 2);
        for (a, &sites) in sites.iter().enumerate() {
            sites.iter().for_each(|&s| y.set(a, s));
        }
        let part = Partitioning::from_parts(2, vec![SiteId(0)], y).unwrap();
        (sb.build().unwrap(), part)
    }

    /// A site holds a segment of a table exactly when the partitioning
    /// places one of the table's attributes there, in every shard.
    #[test]
    fn site_holds_fragments_per_table() {
        let (schema, part) = layout([&[0], &[0, 1], &[0]]);
        let store = Store::new(&schema, &part, 10, 3);
        assert_eq!((store.shards.len(), store.rows_per_shard), (3, 4));
        for (s, shard) in store.shards.iter().enumerate() {
            assert_eq!(shard.sites.len(), 2);
            let (site0, site1) = (&shard.sites[0], &shard.sites[1]);
            let rows = if s == 2 { 2 } else { 4 };
            let r0 = site0.fragments[0].as_ref().unwrap();
            assert_eq!((r0.attrs.len(), r0.base_row, r0.rows), (2, 4 * s, rows));
            assert!(site0.fragments[1].is_some());
            assert_eq!(site1.fragments[0].as_ref().unwrap().attrs, [AttrId(1)]);
            assert!(site1.fragments[1].is_none());
            assert_eq!((site0.buf.len(), site1.buf.len()), (12, 8));
        }
        assert_eq!(store.stored_bytes(), 10 * (12 + 2 + 8));
    }

    /// Rebuilding a `(site, table)` after a layout change leaves the
    /// storage — and its fingerprint — of a fresh build of the new layout.
    #[test]
    fn rebuild_equals_a_fresh_store() {
        let (schema, from) = layout([&[0], &[0], &[0]]);
        let (_, to) = layout([&[0], &[0], &[0, 1]]);
        let hash = |s: &Store| {
            let mut h = 0;
            s.fingerprint(&mut h);
            h
        };
        let mut store = Store::new(&schema, &from, 9, 2);
        let before = hash(&store);
        store.rebuild(&schema, &to, SiteId(1), TableId(1));
        let fresh = Store::new(&schema, &to, 9, 2);
        assert_eq!(hash(&store), hash(&fresh));
        assert_ne!(hash(&store), before);
        assert_eq!(store.stored_bytes(), fresh.stored_bytes());
    }
}
