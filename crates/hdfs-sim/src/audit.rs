//! Audit-log emission.
//!
//! The namenode logs every namespace operation and each datanode logs
//! block transfers; ERMS consumes the *text* of these logs through its
//! CEP pipeline (crate `cep` parses them back). The sink buffers lines
//! until drained, so the ERMS control loop processes exactly the records
//! that arrived since its previous epoch.

use crate::block::BlockId;
use crate::topology::{ClientId, Endpoint, NodeId};
use simcore::SimTime;

/// Buffered audit/clienttrace sink.
#[derive(Debug, Default)]
pub struct AuditSink {
    lines: Vec<String>,
    emitted: u64,
}

impl AuditSink {
    pub fn new() -> Self {
        Self::default()
    }

    fn reader_name(reader: Endpoint) -> String {
        match reader {
            Endpoint::Node(n) => format!("/task@{n}"),
            Endpoint::Client(c) => format!("/{c}"),
        }
    }

    /// Namenode audit record for a file-level operation.
    pub fn file_op(&mut self, now: SimTime, reader: Endpoint, cmd: &str, path: &str) {
        let ip = Self::reader_name(reader);
        self.lines.push(format!(
            "{:.6} FSNamesystem.audit: allowed=true ugi=hadoop ip={} cmd={} src={} dst=null perm=null",
            now.as_secs_f64(),
            ip,
            cmd,
            path,
        ));
        self.emitted += 1;
    }

    /// Datanode client-trace record for one block transfer.
    pub fn block_read(
        &mut self,
        now: SimTime,
        block: BlockId,
        node: NodeId,
        path: &str,
        bytes: u64,
    ) {
        self.lines.push(format!(
            "{:.6} datanode.clienttrace: cmd=read_block blk={} dn={} src={} bytes={}",
            now.as_secs_f64(),
            block,
            node,
            path,
            bytes,
        ));
        self.emitted += 1;
    }

    /// Take all buffered lines.
    pub fn drain(&mut self) -> Vec<String> {
        std::mem::take(&mut self.lines)
    }

    pub fn pending(&self) -> usize {
        self.lines.len()
    }
    pub fn total_emitted(&self) -> u64 {
        self.emitted
    }
}

/// Identifier helpers shared with the audit text format.
pub fn client_endpoint(c: ClientId) -> Endpoint {
    Endpoint::Client(c)
}

impl checkpoint::Checkpointable for AuditSink {
    // Undrained lines are part of the run's state: the CEP epoch after
    // a restore must see exactly what it would have seen.
    checkpoint::ck_fields!(lines, emitted);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_parseable_lines() {
        let mut sink = AuditSink::new();
        sink.file_op(
            SimTime::from_secs(10),
            Endpoint::Client(ClientId(3)),
            "open",
            "/data/f",
        );
        sink.block_read(
            SimTime::from_secs(11),
            BlockId(7),
            NodeId(2),
            "/data/f",
            64 << 20,
        );
        assert_eq!(sink.pending(), 2);
        let lines = sink.drain();
        assert_eq!(lines.len(), 2);
        assert_eq!(sink.pending(), 0, "drain empties the buffer");
        assert_eq!(sink.total_emitted(), 2);

        // must round-trip through the cep audit parser
        let (events, bad) = cep::audit::parse_log(&lines.join("\n"));
        assert_eq!(bad, 0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event_type.as_ref(), cep::audit::AUDIT_EVENT);
        assert_eq!(events[0].get("cmd").unwrap().as_str(), Some("open"));
        assert_eq!(events[0].get("src").unwrap().as_str(), Some("/data/f"));
        assert_eq!(events[1].event_type.as_ref(), cep::audit::BLOCK_EVENT);
        assert_eq!(events[1].get("blk").unwrap().as_str(), Some("blk_7"));
        assert_eq!(events[1].get("dn").unwrap().as_str(), Some("dn2"));
    }

    #[test]
    fn reader_names_distinguish_tasks_from_clients() {
        let mut sink = AuditSink::new();
        sink.file_op(SimTime::ZERO, Endpoint::Node(NodeId(4)), "open", "/f");
        sink.file_op(SimTime::ZERO, Endpoint::Client(ClientId(4)), "open", "/f");
        let lines = sink.drain();
        assert!(lines[0].contains("ip=/task@dn4"));
        assert!(lines[1].contains("ip=/client4"));
    }
}
