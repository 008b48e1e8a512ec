//! The warm tier: an append-only on-disk answer log that survives restarts.
//!
//! Layout under `--cache-dir`: numbered segment files `seg-NNNNNNNN.seg`,
//! each a header plus a run of checksummed records. The cache
//! write-through appends every inserted answer here, so the hot tier can
//! drop entries (demotion) without losing them, and a restarted process
//! re-opens the directory and serves yesterday's answers without paying
//! the source round-trips again.
//!
//! ## On-disk format, version 1
//!
//! ```text
//! segment  := header record*
//! header   := magic:8 = "MMWARM01"  version:u32le = 1
//! record   := len:u32le  crc:u32le  payload[len]      (crc = CRC-32/IEEE of payload)
//! payload  := field*6, each  flen:u32le bytes[flen]
//! fields   := source, key, rule_text, extract_spec, meta, answer_text
//! meta     := "inserted_ms unit_cost_ms hit_boost"    (ASCII, space-separated)
//! ```
//!
//! Queries and answers travel as MSL/OEM text ([`msl::printer::rule`],
//! [`oem::printer::print_store`]) — the same canonical text the cache key
//! is built from — so the format is stable across internal refactors and
//! debuggable with `strings`. The label footprint is *not* stored; it is
//! recomputed from the parsed rule on open, which keeps the two
//! definitions from drifting.
//!
//! ## Recovery
//!
//! [`WarmTier::open`] keeps the **valid prefix** of each segment: it
//! stops at the first record whose length is implausible, whose checksum
//! fails, or whose payload does not parse — exactly what a torn final
//! write (crash mid-append) produces. A segment with a bad header is
//! skipped whole. Later records win over earlier ones with the same
//! `(source, key)`; superseded and invalidated records become garbage
//! that [`WarmTier::compact`] reclaims, rewriting live entries in value
//! order and dropping the lowest-value ones past the byte budget.
//! Appends after open always start a fresh segment, so a torn tail is
//! never appended onto.
//!
//! ## Durability
//!
//! Every append (records and tombstones alike) is flushed to the
//! operating system and never synced to the device. The tier therefore
//! survives a process exit or crash, `SIGKILL` included, but not an OS
//! crash or a power loss: those can drop or tear the appends the device
//! had not yet written, and recovery then keeps the valid prefix.

use super::keyidx::{rule_labels, LabelFootprint};
use super::QueryShape;
use crate::graph::{ExtractVar, VarKind};
use msl::Rule;
use oem::Symbol;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment header magic; the trailing `01` is the format version gate —
/// readers reject anything else.
const MAGIC: &[u8; 8] = b"MMWARM01";
/// On-disk format version written into (and required from) every header.
const VERSION: u32 = 1;
/// Header size: magic + version.
const HEADER_LEN: u64 = 12;
/// Roll to a new segment once the active one crosses this many bytes.
const SEG_ROLL_BYTES: u64 = 1 << 20;
/// Sanity ceiling for a single record payload (a cached answer far past
/// this is garbage or corruption, not data).
const MAX_RECORD_BYTES: u32 = 64 << 20;

/// CRC-32/IEEE (the zlib polynomial), bitwise — small and dependency-free;
/// segment records are the only consumer.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// An index entry for one durable answer: everything needed to probe
/// (parsed query, footprint, score inputs) stays in memory; the answer
/// itself stays on disk at `seg`/`offset` until a hit reads it back.
pub(crate) struct WarmEntry {
    /// Canonical cache key ([`super::canonical_key`]).
    pub key: String,
    /// The cached source query, parsed (containment probes need the AST).
    pub query: Rule,
    /// Its shape, which an exact probe compares instead of printing the
    /// probe's key.
    pub shape: QueryShape,
    /// Variables the executor extracts from served answers.
    pub extract: Vec<ExtractVar>,
    /// Label footprint for delta-driven invalidation.
    pub footprint: LabelFootprint,
    /// Insert wall-clock per the cache's [`Clock`](wrappers::fault::Clock).
    pub inserted_ms: u64,
    /// Source per-call latency EWMA snapshotted at insert (ms).
    pub unit_cost_ms: f64,
    /// Per-entry hit EWMA (refreshed in memory on promotion; the on-disk
    /// copy is only as fresh as the last append/compaction).
    pub hit_boost: f64,
    /// Serialized answer size in bytes.
    pub size_bytes: usize,
    /// Segment id holding the record.
    seg: u64,
    /// Byte offset of the record (its `len` field) within the segment.
    offset: u64,
}

impl WarmEntry {
    /// Value score: expected ms saved per resident byte (same formula as
    /// the hot tier — see [`super::hot`]). Compaction keeps high scores.
    pub fn value_score(&self) -> f64 {
        self.unit_cost_ms * self.hit_boost / self.size_bytes.max(1) as f64
    }
}

/// Operational stats for `medmaker cache stats` and the metrics gauges.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmStats {
    /// Live (indexed) entries.
    pub entries: usize,
    /// Sum of live answer bytes (what the `warm_bytes` gauge reports).
    pub live_bytes: u64,
    /// Total bytes of all segment files, garbage included.
    pub disk_bytes: u64,
    /// Segment files on disk.
    pub segments: usize,
    /// Segments skipped at open for a bad header (wrong magic/version).
    pub corrupt_segments: usize,
    /// Segments whose tail was truncated at open (torn final write).
    pub torn_segments: usize,
}

/// Result of one [`WarmTier::compact`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactStats {
    /// Entries rewritten into the new segments.
    pub kept: usize,
    /// Live entries dropped for being past the byte budget (lowest value
    /// first) or unreadable.
    pub dropped: usize,
    /// Segment bytes before compaction.
    pub bytes_before: u64,
    /// Segment bytes after.
    pub bytes_after: u64,
}

/// The file-backed warm tier. See the module docs for format and
/// recovery semantics.
pub struct WarmTier {
    dir: PathBuf,
    /// `source -> key -> entry`; the map keyed by canonical key is what
    /// makes "later records win" a one-line insert.
    index: BTreeMap<Symbol, BTreeMap<String, WarmEntry>>,
    next_seg: u64,
    /// Active append target: `(segment id, handle, bytes written)`.
    active: Option<(u64, File, u64)>,
    disk_bytes: u64,
    corrupt_segments: usize,
    torn_segments: usize,
}

impl WarmTier {
    /// Open (creating if absent) the warm tier under `dir`, indexing the
    /// valid prefix of every segment.
    pub fn open(dir: &Path) -> std::io::Result<WarmTier> {
        fs::create_dir_all(dir)?;
        let mut tier = WarmTier {
            dir: dir.to_path_buf(),
            index: BTreeMap::new(),
            next_seg: 1,
            active: None,
            disk_bytes: 0,
            corrupt_segments: 0,
            torn_segments: 0,
        };
        let mut seg_ids = Vec::new();
        for dirent in fs::read_dir(dir)? {
            let name = dirent?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|r| r.strip_suffix(".seg"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                seg_ids.push(id);
            }
        }
        seg_ids.sort_unstable();
        for id in seg_ids {
            tier.scan_segment(id)?;
            tier.next_seg = tier.next_seg.max(id + 1);
        }
        Ok(tier)
    }

    /// The directory this tier lives under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn seg_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:08}.seg"))
    }

    /// Index one segment's valid prefix; bad header skips the file, a bad
    /// record truncates the scan (torn tail).
    fn scan_segment(&mut self, id: u64) -> std::io::Result<()> {
        let bytes = fs::read(self.seg_path(id))?;
        self.disk_bytes += bytes.len() as u64;
        if bytes.len() < HEADER_LEN as usize
            || &bytes[..8] != MAGIC
            || u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) != VERSION
        {
            self.corrupt_segments += 1;
            return Ok(());
        }
        let mut at = HEADER_LEN as usize;
        let mut torn = false;
        while at < bytes.len() {
            match decode_record(&bytes[at..]) {
                Some((rec, consumed)) => {
                    self.index_record(id, at as u64, rec);
                    at += consumed;
                }
                None => {
                    torn = true;
                    break;
                }
            }
        }
        if torn {
            self.torn_segments += 1;
        }
        Ok(())
    }

    /// Insert a decoded record into the index; later records replace
    /// earlier same-key ones. A record with an empty rule text is a
    /// **tombstone**: it undoes an earlier record (one key, or the whole
    /// source when the key is empty too), which is how invalidations
    /// survive a restart of the append-only log.
    fn index_record(&mut self, seg: u64, offset: u64, rec: Record) {
        if rec.rule_text.is_empty() {
            let source = oem::sym(&rec.source);
            if rec.key.is_empty() {
                self.index.remove(&source);
            } else if let Some(shard) = self.index.get_mut(&source) {
                shard.remove(&rec.key);
                if shard.is_empty() {
                    self.index.remove(&source);
                }
            }
            return;
        }
        let Some(entry) = rec.to_entry(seg, offset) else {
            // CRC-valid but semantically unparseable (e.g. written by a
            // newer minor revision): ignore the record, keep scanning.
            return;
        };
        let source = oem::sym(&rec.source);
        self.index
            .entry(source)
            .or_default()
            .insert(entry.key.clone(), entry);
    }

    /// Append one answer. Takes serialized texts (the facade already has
    /// them for sizing) plus the parsed query for the index entry.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn append(
        &mut self,
        source: Symbol,
        key: &str,
        query: &Rule,
        extract: &[ExtractVar],
        inserted_ms: u64,
        unit_cost_ms: f64,
        hit_boost: f64,
        answer_text: &str,
    ) -> std::io::Result<()> {
        let payload = encode_payload(
            &source.as_str(),
            key,
            &msl::printer::rule(query),
            &extract_to_spec(extract),
            &format!("{inserted_ms} {unit_cost_ms} {hit_boost}"),
            answer_text,
        );
        let (seg, offset) = self.write_record(&payload)?;
        let entry = WarmEntry {
            key: key.to_string(),
            shape: QueryShape::of(query),
            query: query.clone(),
            extract: extract.to_vec(),
            footprint: rule_labels(query),
            inserted_ms,
            unit_cost_ms,
            hit_boost,
            size_bytes: answer_text.len(),
            seg,
            offset,
        };
        self.index
            .entry(source)
            .or_default()
            .insert(entry.key.clone(), entry);
        Ok(())
    }

    /// Append a tombstone undoing earlier records: one key, or the whole
    /// source when `key` is `None`. The caller has already dropped the
    /// index entries; this makes the removal survive a reopen.
    pub(crate) fn append_tombstone(
        &mut self,
        source: Symbol,
        key: Option<&str>,
    ) -> std::io::Result<()> {
        let payload = encode_payload(&source.as_str(), key.unwrap_or(""), "", "", "", "");
        self.write_record(&payload)?;
        Ok(())
    }

    /// Frame `payload` as a record and append it to the active segment
    /// (rolling or lazily creating one); returns `(segment, offset)`.
    fn write_record(&mut self, payload: &[u8]) -> std::io::Result<(u64, u64)> {
        let mut record = Vec::with_capacity(payload.len() + 8);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);

        let needs_roll = match &self.active {
            Some((_, _, written)) => *written >= SEG_ROLL_BYTES,
            None => true,
        };
        if needs_roll {
            let id = self.next_seg;
            self.next_seg += 1;
            let mut file = OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(self.seg_path(id))?;
            file.write_all(MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            self.disk_bytes += HEADER_LEN;
            self.active = Some((id, file, HEADER_LEN));
        }
        let (seg, file, written) = self.active.as_mut().expect("active segment");
        let offset = *written;
        file.write_all(&record)?;
        file.flush()?;
        *written += record.len() as u64;
        self.disk_bytes += record.len() as u64;
        Ok((*seg, offset))
    }

    /// Live entries for one source, if any.
    pub(crate) fn entries(&self, source: Symbol) -> Option<&BTreeMap<String, WarmEntry>> {
        self.index.get(&source)
    }

    /// Mutable entry access (promotion refreshes `hit_boost` in memory).
    pub(crate) fn entry_mut(&mut self, source: Symbol, key: &str) -> Option<&mut WarmEntry> {
        self.index.get_mut(&source)?.get_mut(key)
    }

    /// Read an entry's answer back off disk, re-verifying the checksum —
    /// `None` means the record went bad since open (disk fault), which
    /// the cache treats as a miss.
    pub(crate) fn read_answer(&self, entry: &WarmEntry) -> Option<oem::ObjectStore> {
        let mut file = File::open(self.seg_path(entry.seg)).ok()?;
        file.seek(SeekFrom::Start(entry.offset)).ok()?;
        let mut head = [0u8; 8];
        file.read_exact(&mut head).ok()?;
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        if len > MAX_RECORD_BYTES {
            return None;
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact(&mut payload).ok()?;
        if crc32(&payload) != crc {
            return None;
        }
        let fields = split_fields(&payload, 6)?;
        let answer_text = std::str::from_utf8(fields[5]).ok()?;
        oem::parser::parse_store(answer_text).ok()
    }

    /// Drop a whole source from the index; returns `(entries, bytes)`
    /// dropped. Disk records become garbage until compaction.
    pub(crate) fn remove_source(&mut self, source: Symbol) -> (usize, usize) {
        match self.index.remove(&source) {
            Some(shard) => (
                shard.len(),
                shard.values().map(|e| e.size_bytes).sum::<usize>(),
            ),
            None => (0, 0),
        }
    }

    /// Drop entries of `source` failing `keep`; returns `(entries, bytes)`
    /// dropped.
    pub(crate) fn retain(
        &mut self,
        source: Symbol,
        mut keep: impl FnMut(&WarmEntry) -> bool,
    ) -> (usize, usize) {
        let Some(shard) = self.index.get_mut(&source) else {
            return (0, 0);
        };
        let before = shard.len();
        let mut freed = 0;
        shard.retain(|_, e| {
            let k = keep(e);
            if !k {
                freed += e.size_bytes;
            }
            k
        });
        let after = shard.len();
        if shard.is_empty() {
            self.index.remove(&source);
        }
        (before - after, freed)
    }

    /// Operational stats (see [`WarmStats`]).
    pub fn stats(&self) -> WarmStats {
        WarmStats {
            entries: self.index.values().map(BTreeMap::len).sum(),
            live_bytes: self
                .index
                .values()
                .flat_map(|s| s.values())
                .map(|e| e.size_bytes as u64)
                .sum(),
            disk_bytes: self.disk_bytes,
            segments: self.segment_ids().len(),
            corrupt_segments: self.corrupt_segments,
            torn_segments: self.torn_segments,
        }
    }

    /// Total bytes of all segment files (garbage included) — the
    /// auto-compaction trigger compares this against the budget.
    pub(crate) fn disk_bytes(&self) -> u64 {
        self.disk_bytes
    }

    fn segment_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        if let Ok(dirents) = fs::read_dir(&self.dir) {
            for dirent in dirents.flatten() {
                let name = dirent.file_name();
                let name = name.to_string_lossy();
                if let Some(id) = name
                    .strip_prefix("seg-")
                    .and_then(|r| r.strip_suffix(".seg"))
                    .and_then(|digits| digits.parse::<u64>().ok())
                {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Delete every segment and empty the index.
    pub fn clear(&mut self) -> std::io::Result<()> {
        for id in self.segment_ids() {
            fs::remove_file(self.seg_path(id))?;
        }
        self.index.clear();
        self.active = None;
        self.disk_bytes = 0;
        Ok(())
    }

    /// Rewrite live entries into fresh segments in value order (highest
    /// first), dropping the lowest-value entries once the rewritten bytes
    /// would exceed `budget_bytes`, then delete the old segments. This is
    /// both garbage collection (superseded/invalidated records go away)
    /// and the warm tier's capacity eviction.
    pub fn compact(&mut self, budget_bytes: u64) -> std::io::Result<CompactStats> {
        let bytes_before = self.disk_bytes;
        let old_ids = self.segment_ids();

        // Pull every live record back through the checksum gate, pairing
        // the index entry with its serialized answer.
        let mut live: Vec<(Symbol, WarmEntry, String)> = Vec::new();
        let mut dropped = 0;
        let sources: Vec<Symbol> = self.index.keys().copied().collect();
        for source in sources {
            let shard = self.index.remove(&source).unwrap_or_default();
            for (_, entry) in shard {
                match self.read_answer(&entry) {
                    Some(store) => {
                        let text = oem::printer::print_store(&store);
                        live.push((source, entry, text));
                    }
                    None => dropped += 1,
                }
            }
        }
        live.sort_by(|a, b| {
            b.1.value_score()
                .partial_cmp(&a.1.value_score())
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // Rewrite survivors into fresh segments via the normal append
        // path (which re-indexes them), budget permitting.
        self.active = None;
        let budget_start = self.disk_bytes;
        let mut kept = 0;
        for (source, entry, answer_text) in live {
            let record_cost = (answer_text.len() + 128) as u64; // field framing slack
            if self.disk_bytes - budget_start + record_cost > budget_bytes && kept > 0 {
                dropped += 1;
                continue;
            }
            self.append(
                source,
                &entry.key,
                &entry.query,
                &entry.extract,
                entry.inserted_ms,
                entry.unit_cost_ms,
                entry.hit_boost,
                &answer_text,
            )?;
            kept += 1;
        }

        for id in old_ids {
            let path = self.seg_path(id);
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
            self.disk_bytes = self.disk_bytes.saturating_sub(len);
        }
        Ok(CompactStats {
            kept,
            dropped,
            bytes_before,
            bytes_after: self.disk_bytes,
        })
    }
}

/// A decoded on-disk record, pre-index.
struct Record {
    source: String,
    key: String,
    rule_text: String,
    extract_spec: String,
    meta: String,
    answer_len: usize,
}

impl Record {
    /// Parse the texts into an index entry; `None` rejects records whose
    /// rule/extract/meta no longer parse (kept out of the index, scan
    /// continues — the bytes were checksum-valid, just not understood).
    fn to_entry(&self, seg: u64, offset: u64) -> Option<WarmEntry> {
        let query = msl::parse_rule(&self.rule_text).ok()?;
        let extract = extract_from_spec(&self.extract_spec)?;
        let mut meta = self.meta.split_whitespace();
        let inserted_ms: u64 = meta.next()?.parse().ok()?;
        let unit_cost_ms: f64 = meta.next()?.parse().ok()?;
        let hit_boost: f64 = meta.next()?.parse().ok()?;
        let footprint = rule_labels(&query);
        Some(WarmEntry {
            key: self.key.clone(),
            shape: QueryShape::of(&query),
            query,
            extract,
            footprint,
            inserted_ms,
            unit_cost_ms,
            hit_boost,
            size_bytes: self.answer_len,
            seg,
            offset,
        })
    }
}

/// Decode one record at the head of `bytes`; `Some((record, consumed))`
/// or `None` on any framing/checksum/UTF-8 violation (torn tail).
fn decode_record(bytes: &[u8]) -> Option<(Record, usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if len > MAX_RECORD_BYTES || bytes.len() < 8 + len as usize {
        return None;
    }
    let payload = &bytes[8..8 + len as usize];
    if crc32(payload) != crc {
        return None;
    }
    let fields = split_fields(payload, 6)?;
    let text = |i: usize| std::str::from_utf8(fields[i]).ok().map(str::to_string);
    Some((
        Record {
            source: text(0)?,
            key: text(1)?,
            rule_text: text(2)?,
            extract_spec: text(3)?,
            meta: text(4)?,
            answer_len: fields[5].len(),
        },
        8 + len as usize,
    ))
}

/// Split a payload into exactly `n` length-prefixed fields.
fn split_fields(payload: &[u8], n: usize) -> Option<Vec<&[u8]>> {
    let mut fields = Vec::with_capacity(n);
    let mut at = 0;
    for _ in 0..n {
        if payload.len() < at + 4 {
            return None;
        }
        let flen = u32::from_le_bytes([
            payload[at],
            payload[at + 1],
            payload[at + 2],
            payload[at + 3],
        ]) as usize;
        at += 4;
        if payload.len() < at + flen {
            return None;
        }
        fields.push(&payload[at..at + flen]);
        at += flen;
    }
    if at != payload.len() {
        return None; // trailing garbage is a framing violation
    }
    Some(fields)
}

/// Encode the six payload fields, length-prefixed.
fn encode_payload(
    source: &str,
    key: &str,
    rule_text: &str,
    extract_spec: &str,
    meta: &str,
    answer_text: &str,
) -> Vec<u8> {
    let mut buf = Vec::new();
    for field in [source, key, rule_text, extract_spec, meta, answer_text] {
        buf.extend_from_slice(&(field.len() as u32).to_le_bytes());
        buf.extend_from_slice(field.as_bytes());
    }
    buf
}

/// `"N:s R:o"` — variable name and kind, space-separated.
fn extract_to_spec(extract: &[ExtractVar]) -> String {
    extract
        .iter()
        .map(|e| {
            let kind = match e.kind {
                VarKind::Scalar => 's',
                VarKind::Object => 'o',
            };
            format!("{}:{}", e.var.as_str(), kind)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn extract_from_spec(spec: &str) -> Option<Vec<ExtractVar>> {
    let mut out = Vec::new();
    for item in spec.split_whitespace() {
        let (name, kind) = item.rsplit_once(':')?;
        let kind = match kind {
            "s" => VarKind::Scalar,
            "o" => VarKind::Object,
            _ => return None,
        };
        out.push(ExtractVar {
            var: oem::sym(name),
            kind,
        });
    }
    Some(out)
}
