//! The word-stream trait.

/// An endless stream of 32-bit bus words.
///
/// The simulator pulls one word per clock cycle; consecutive words define
/// the per-wire transitions. Implementations must be deterministic for a
/// given construction seed.
pub trait TraceSource {
    /// Produces the next word driven onto the bus.
    fn next_word(&mut self) -> u32;

    /// Fills `out` with the next `out.len()` words: exactly the words
    /// as many [`TraceSource::next_word`] calls would return, leaving
    /// the generator in the same state. The default pulls one word at a
    /// time; generators override it with a tight loop per phase, so a
    /// bulk drain pays one dispatch per fill instead of one per word.
    fn fill_words(&mut self, out: &mut [u32]) {
        for w in out {
            *w = self.next_word();
        }
    }

    /// Collects the next `n` words into a vector (testing convenience).
    fn take_words(&mut self, n: usize) -> Vec<u32>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_word()).collect()
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_word(&mut self) -> u32 {
        (**self).next_word()
    }

    fn fill_words(&mut self, out: &mut [u32]) {
        (**self).fill_words(out);
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_word(&mut self) -> u32 {
        (**self).next_word()
    }

    fn fill_words(&mut self, out: &mut [u32]) {
        (**self).fill_words(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u32);
    impl TraceSource for Counter {
        fn next_word(&mut self) -> u32 {
            self.0 = self.0.wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn take_words_advances_state() {
        let mut c = Counter(0);
        assert_eq!(c.take_words(3), vec![1, 2, 3]);
        assert_eq!(c.next_word(), 4);
    }

    #[test]
    fn boxed_and_borrowed_delegate() {
        let mut boxed: Box<dyn TraceSource> = Box::new(Counter(10));
        assert_eq!(boxed.next_word(), 11);
        let mut buf = [0u32; 2];
        boxed.fill_words(&mut buf);
        assert_eq!(buf, [12, 13]);
        let mut c = Counter(0);
        let mut r = &mut c;
        assert_eq!(TraceSource::next_word(&mut r), 1);
        TraceSource::fill_words(&mut r, &mut buf);
        assert_eq!(buf, [2, 3]);
    }
}
