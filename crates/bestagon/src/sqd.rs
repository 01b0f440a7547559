//! SiQAD design-file (`.sqd`) export — flow step 8.
//!
//! The paper's flow ends by generating "a design file from the SiDB
//! layout for physical simulation and/or fabrication"; SiQAD's XML-based
//! `.sqd` format is the interchange format of the SiDB community. This
//! writer emits the `dbdot` entries (with `latcoord n m l` addressing)
//! that SiQAD reads; program metadata identifies this reproduction.

use sidb_sim::layout::SidbLayout;
use std::io::{self, Write};

/// Serializes a layout into `.sqd` XML, writing to `out`.
///
/// A `&mut Vec<u8>` or `&mut File` works as the writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub(crate) fn write_sqd<W: Write>(layout: &SidbLayout, mut out: W) -> io::Result<()> {
    writeln!(out, r#"<?xml version="1.0" encoding="UTF-8"?>"#)?;
    writeln!(out, "<siqad>")?;
    writeln!(out, "  <program>")?;
    writeln!(out, "    <file_purpose>save</file_purpose>")?;
    writeln!(out, "    <version>bestagon-reproduction 0.1.0</version>")?;
    writeln!(out, "  </program>")?;
    writeln!(out, "  <layers>")?;
    writeln!(out, r#"    <layer_prop name="Lattice" type="Lattice"/>"#)?;
    writeln!(out, r#"    <layer_prop name="DB" type="DB"/>"#)?;
    writeln!(out, "  </layers>")?;
    writeln!(out, "  <design>")?;
    writeln!(out, r#"    <layer type="Lattice"/>"#)?;
    writeln!(out, r#"    <layer type="DB">"#)?;
    for site in layout.sites() {
        writeln!(out, "      <dbdot>")?;
        writeln!(out, "        <layer_id>2</layer_id>")?;
        writeln!(
            out,
            r#"        <latcoord n="{}" m="{}" l="{}"/>"#,
            site.x, site.y, site.b
        )?;
        writeln!(out, "      </dbdot>")?;
    }
    writeln!(out, "    </layer>")?;
    writeln!(out, "  </design>")?;
    writeln!(out, "</siqad>")?;
    Ok(())
}

/// Serializes a layout into an `.sqd` XML string.
pub fn to_sqd_string(layout: &SidbLayout) -> String {
    let mut buf = Vec::new();
    write_sqd(layout, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("writer emits UTF-8 only")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_one_dbdot_per_site() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (3, 2, 1), (5, 5, 0)]);
        let xml = to_sqd_string(&layout);
        assert_eq!(xml.matches("<dbdot>").count(), 3);
        assert!(xml.contains(r#"<latcoord n="3" m="2" l="1"/>"#));
    }

    #[test]
    fn output_is_well_formed_enough() {
        let layout = SidbLayout::from_sites([(1, 1, 0)]);
        let xml = to_sqd_string(&layout);
        assert!(xml.starts_with("<?xml"));
        assert!(xml.trim_end().ends_with("</siqad>"));
        // Every opening tag has a closing counterpart.
        for tag in ["siqad", "program", "design", "dbdot"] {
            assert_eq!(
                xml.matches(&format!("<{tag}>")).count(),
                xml.matches(&format!("</{tag}>")).count(),
                "{tag}"
            );
        }
    }

    #[test]
    fn empty_layout_has_no_dots() {
        let xml = to_sqd_string(&SidbLayout::new());
        assert_eq!(xml.matches("<dbdot>").count(), 0);
    }
}
