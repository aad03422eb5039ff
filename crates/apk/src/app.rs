//! The app model: an IR program plus its manifest and metadata.

use crate::manifest::Manifest;
use gdroid_ir::Program;

/// A Google Play-style app category. Categories drive the generator's size
/// profile (games are bigger, personalization apps smaller), producing the
/// heavy-tailed corpus spread visible in the paper's Fig. 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Category {
    Game,
    Social,
    Communication,
    Productivity,
    Tools,
    Finance,
    Shopping,
    Media,
    Personalization,
}

impl Category {
    /// All categories.
    pub const ALL: [Category; 9] = [
        Category::Game,
        Category::Social,
        Category::Communication,
        Category::Productivity,
        Category::Tools,
        Category::Finance,
        Category::Shopping,
        Category::Media,
        Category::Personalization,
    ];

    /// Relative popularity weights used when sampling a category.
    pub fn weights() -> [u32; 9] {
        [22, 14, 10, 12, 14, 6, 8, 9, 5]
    }

    /// Code-size multiplier relative to the corpus median.
    pub fn size_factor(self) -> f64 {
        match self {
            Category::Game => 1.9,
            Category::Social => 1.4,
            Category::Communication => 1.2,
            Category::Productivity => 1.0,
            Category::Tools => 0.6,
            Category::Finance => 1.1,
            Category::Shopping => 1.0,
            Category::Media => 1.3,
            Category::Personalization => 0.45,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Category::Game => "Game",
            Category::Social => "Social",
            Category::Communication => "Communication",
            Category::Productivity => "Productivity",
            Category::Tools => "Tools",
            Category::Finance => "Finance",
            Category::Shopping => "Shopping",
            Category::Media => "Media",
            Category::Personalization => "Personalization",
        }
    }
}

/// A complete Android app in IR form — the unit every analysis consumes.
#[derive(Clone, Debug)]
pub struct App {
    /// Synthetic package-style name (`com.gen.app0042`).
    pub name: String,
    /// Category.
    pub category: Category,
    /// The seed this app was generated from (reproducibility handle).
    pub seed: u64,
    /// The code.
    pub program: Program,
    /// The manifest.
    pub manifest: Manifest,
}

impl App {
    /// Rebuilds the program's lookup tables after an in-place edit.
    pub fn rebuild_lookups(&mut self) {
        self.program.rebuild_lookups();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_tables_consistent() {
        assert_eq!(Category::ALL.len(), Category::weights().len());
        for c in Category::ALL {
            assert!(c.size_factor() > 0.0);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn games_are_bigger_than_personalization() {
        assert!(Category::Game.size_factor() > Category::Personalization.size_factor());
    }
}
